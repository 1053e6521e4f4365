// Package nodeinfo implements the Node Info Service (NIS) of paper
// §4.4: a WS-ServiceGroup "whose members represent the processors
// available for scheduling". Each machine's Processor Utilization
// service asynchronously reports threshold-crossing utilization changes;
// the NIS catalogs hardware characteristics and current load "and
// delivers it to the Scheduler service upon request". Membership is a
// lease: each Report writes its machine's row, in memory only, to
// terminate leaseTerm later, and renewals refill a restarted master's.
package nodeinfo

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"uvacg/internal/resourcedb"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

// NS is the NIS message namespace.
const NS = "urn:uvacg:nis"

// Action URIs.
const (
	// ActionReport is the one-way utilization report from a machine's
	// Processor Utilization service.
	ActionReport = NS + "/Report"
	// ActionGetProcessors is the Scheduler's poll.
	ActionGetProcessors = NS + "/GetProcessors"
)

// ServicePath is where a master mounts the NIS.
const ServicePath = "/NodeInfoService"

// GroupResourceID is the well-known id of the processors service-group
// resource.
const GroupResourceID = "processors"

// RenewEvery is the longest a member's monitor goes between Reports.
// leaseTerm is how long an entry outlives its last Report: three renewal
// periods, so that a lost Report or two do not drop a live machine.
const (
	RenewEvery = time.Second
	leaseTerm  = 3 * RenewEvery
)

// Message QNames.
var (
	qReport           = xmlutil.Q(NS, "ProcessorReport")
	qGetProcessors    = xmlutil.Q(NS, "GetProcessors")
	qGetProcsResponse = xmlutil.Q(NS, "GetProcessorsResponse")
	qProcessor        = xmlutil.Q(NS, "Processor")
	qHost             = xmlutil.Q(NS, "Host")
	qES               = xmlutil.Q(NS, "ExecutionService")
	qCores            = xmlutil.Q(NS, "Cores")
	qSpeedMHz         = xmlutil.Q(NS, "SpeedMHz")
	qRAMMB            = xmlutil.Q(NS, "RAMMB")
	qUtilization      = xmlutil.Q(NS, "Utilization")
	qGridLoad         = xmlutil.Q(NS, "GridLoad")
	qUpdatedAt        = xmlutil.Q(NS, "UpdatedAt")
	qAttempt          = xmlutil.Q(NS, "Attempt")
)

// Processor describes one machine's processors: the hardware
// characteristics the Scheduler weighs ("CPU speed and total RAM",
// paper §4.6) plus the dynamic utilization.
type Processor struct {
	Host     string
	ES       wsa.EndpointReference
	Cores    int
	SpeedMHz float64
	RAMMB    int
	// Utilization is the machine's total, in [0, 1]: grid jobs and
	// whatever else its owner runs.
	Utilization float64
	// GridLoad is how many processor slots the machine's ES held —
	// processes running plus jobs staging — in the sample Utilization was
	// computed from: the part of Utilization a Scheduler that counts its
	// own placements already knows. A report without the element (a node
	// that predates it) reads as 0, all of its load foreign.
	GridLoad  int
	UpdatedAt time.Time
	// Attempts are the Scheduler's attempts whose process the machine's ES
	// ran when it reported: each renewal says which attempts are alive.
	Attempts []string
}

// Service is the NIS.
type Service struct {
	svc   *wsrf.Service
	lease time.Duration // leaseTerm; in-package tests shorten it
}

// Config assembles a NIS.
type Config struct {
	// Address is the master host's base address.
	Address string
}

// New builds the NIS over an in-memory table of members.
func New(cfg Config) (*Service, error) {
	return newService(cfg.Address, resourcedb.NewTable("nodeinfo", resourcedb.BlobCodec{}))
}

func newService(address string, rows *resourcedb.Table) (*Service, error) {
	svc, err := wsrf.NewService(wsrf.ServiceConfig{Path: ServicePath, Address: address, Home: wsrf.NewGroupHome(GroupResourceID, rows)})
	if err != nil {
		return nil, err
	}
	s := &Service{svc: svc, lease: leaseTerm}
	// Report is the group's one writer: it validates a processor before
	// its entry goes in, and GetProcessors reads every entry back.
	svc.Enable(wsrf.ResourcePropertiesPortType{})
	svc.RegisterServiceMethod(ActionReport, s.handleReport)
	svc.RegisterServiceMethod(ActionGetProcessors, s.handleGetProcessors)
	return s, nil
}

// WSRF returns the underlying service for mounting.
func (s *Service) WSRF() *wsrf.Service { return s.svc }

// EPR returns the service endpoint.
func (s *Service) EPR() wsa.EndpointReference { return s.svc.EPR() }

// GroupEPR returns the processors group resource EPR.
func (s *Service) GroupEPR() wsa.EndpointReference { return s.svc.EPRFor(GroupResourceID) }

// processorContent renders a Processor as group-entry content.
// An idle machine's entry has no Attempt children.
func processorContent(p Processor, now time.Time) *xmlutil.Element {
	el := xmlutil.NewContainer(qProcessor,
		xmlutil.NewElement(qHost, p.Host),
		xmlutil.NewElement(qCores, strconv.Itoa(p.Cores)),
		xmlutil.NewElement(qSpeedMHz, strconv.FormatFloat(p.SpeedMHz, 'f', -1, 64)),
		xmlutil.NewElement(qRAMMB, strconv.Itoa(p.RAMMB)),
		xmlutil.NewElement(qUtilization, strconv.FormatFloat(p.Utilization, 'f', 4, 64)),
		xmlutil.NewElement(qGridLoad, strconv.Itoa(p.GridLoad)),
		xmlutil.NewElement(qUpdatedAt, now.UTC().Format(time.RFC3339Nano)),
	)
	for _, attempt := range p.Attempts {
		el.Append(xmlutil.NewElement(qAttempt, attempt))
	}
	return el
}

// parseProcessor is the one decoder of a processor's fields, whether they
// arrive as a Report, sit in a group entry or come back from GetProcessors:
// the first field that does not parse is the error. The ES child is the
// caller's. Attempts are copies: the Scheduler's catalog keeps them past
// the message.
func parseProcessor(el *xmlutil.Element) (Processor, error) {
	p := Processor{Host: el.ChildText(qHost)}
	var err error
	if p.Cores, err = strconv.Atoi(el.ChildText(qCores)); err != nil {
		return p, fmt.Errorf("nis: bad cores: %w", err)
	}
	if p.SpeedMHz, err = strconv.ParseFloat(el.ChildText(qSpeedMHz), 64); err != nil {
		return p, fmt.Errorf("nis: bad speed: %w", err)
	}
	if p.RAMMB, err = strconv.Atoi(el.ChildText(qRAMMB)); err != nil {
		return p, fmt.Errorf("nis: bad ram: %w", err)
	}
	if p.Utilization, err = strconv.ParseFloat(el.ChildText(qUtilization), 64); err != nil {
		return p, fmt.Errorf("nis: bad utilization: %w", err)
	}
	// GridLoad is optional: a report without it (a node that predates it)
	// reads as 0.
	if text := el.ChildText(qGridLoad); text != "" {
		if p.GridLoad, err = strconv.Atoi(text); err != nil || p.GridLoad < 0 {
			return p, fmt.Errorf("nis: bad grid load %q", text)
		}
	}
	if ts := el.ChildText(qUpdatedAt); ts != "" {
		if p.UpdatedAt, err = time.Parse(time.RFC3339Nano, ts); err != nil {
			return p, fmt.Errorf("nis: bad timestamp: %w", err)
		}
	}
	for _, c := range el.Children {
		if c.Name == qAttempt {
			p.Attempts = append(p.Attempts, strings.Clone(c.Text))
		}
	}
	return p, nil
}

func processorFromEntry(e wsrf.Entry) (Processor, error) {
	if e.Content == nil || e.Content.Name != qProcessor {
		return Processor{}, fmt.Errorf("nis: entry %s has no processor content", e.Member.Address)
	}
	p, err := parseProcessor(e.Content)
	p.ES = e.Member
	return p, err
}

// ReportRequest builds a utilization report body.
func ReportRequest(p Processor) *xmlutil.Element {
	body := processorContent(p, time.Time{})
	body.Name = qReport
	body.Append(p.ES.ElementNamed(qES))
	return body
}

// handleReport ingests a utilization report: the machine's entry is
// written whole, the attempts it runs included, and renewed for the lease
// term.
func (s *Service) handleReport(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	if body == nil || body.Name != qReport {
		return nil, soap.SenderFault("nis: body is not a ProcessorReport")
	}
	esEl := body.Child(qES)
	if esEl == nil {
		return nil, soap.SenderFault("nis: report has no ExecutionService EPR")
	}
	member, err := wsa.ParseEPR(esEl)
	if err != nil {
		return nil, soap.SenderFault("nis: bad member EPR: %v", err)
	}
	p, err := parseProcessor(body)
	if err != nil {
		return nil, soap.SenderFault("%v", err)
	}
	now := time.Now()
	if err := s.svc.Renew(member.String(), wsrf.NewEntry(member, processorContent(p, now)), now.Add(s.lease)); err != nil {
		return nil, err
	}
	return nil, nil
}

// handleGetProcessors answers the Scheduler's poll with every catalogued
// processor: its content plus its ES EPR.
func (s *Service) handleGetProcessors(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	procs, err := s.Processors()
	if err != nil {
		return nil, soap.ReceiverFault("%v", err)
	}
	resp := &xmlutil.Element{Name: qGetProcsResponse}
	for _, p := range procs {
		el := processorContent(p, p.UpdatedAt)
		el.Append(p.ES.ElementNamed(qES))
		resp.Append(el)
	}
	return resp, nil
}

// parseProcessorElements decodes the Processor children of a
// GetProcessors response.
func parseProcessorElements(body *xmlutil.Element) ([]Processor, error) {
	var out []Processor
	for _, el := range body.ChildrenNamed(qProcessor) {
		p, err := parseProcessor(el)
		if err != nil {
			return nil, err
		}
		if esEl := el.Child(qES); esEl != nil {
			if p.ES, err = wsa.ParseEPR(esEl); err != nil {
				return nil, err
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// Processors reads the catalog server-side, sorted by host: every entry
// whose lease has not run out.
func (s *Service) Processors() ([]Processor, error) {
	doc, err := s.svc.LoadResource(GroupResourceID)
	if err != nil {
		return nil, err
	}
	entries, err := wsrf.Entries(doc)
	if err != nil {
		return nil, err
	}
	out := make([]Processor, 0, len(entries))
	for _, e := range entries {
		p, err := processorFromEntry(e)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out, nil
}

// GetProcessorsVia polls a NIS over the wire (the Scheduler's step 2).
func GetProcessorsVia(ctx context.Context, c *transport.Client, nis wsa.EndpointReference) ([]Processor, error) {
	body, err := c.Call(ctx, nis, ActionGetProcessors, &xmlutil.Element{Name: qGetProcessors})
	if err != nil {
		return nil, err
	}
	return parseProcessorElements(body)
}
