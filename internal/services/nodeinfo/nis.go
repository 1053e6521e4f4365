// Package nodeinfo implements the Node Info Service (NIS) of paper
// §4.4: a WS-ServiceGroup "whose members represent the processors
// available for scheduling". Each machine's Processor Utilization
// service asynchronously reports threshold-crossing utilization changes;
// the NIS catalogs hardware characteristics and current load "and
// delivers it to the Scheduler service upon request".
package nodeinfo

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

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

// GroupResourceID is the well-known id of the processors service-group
// resource.
const GroupResourceID = "processors"

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
}

// Service is the NIS.
type Service struct {
	svc *wsrf.Service
	now func() time.Time
}

// Config assembles a NIS.
type Config struct {
	// Address is the master host's base address.
	Address string
	// Home backs the service-group resource.
	Home wsrf.ResourceHome
}

// New builds the NIS and provisions its processors group resource.
func New(cfg Config) (*Service, error) {
	if cfg.Home == nil {
		return nil, fmt.Errorf("nis: config requires Home")
	}
	svc, err := wsrf.NewService(wsrf.ServiceConfig{Path: "/NodeInfoService", Address: cfg.Address, Home: cfg.Home})
	if err != nil {
		return nil, err
	}
	s := &Service{svc: svc, now: time.Now}
	svc.Enable(wsrf.ResourcePropertiesPortType{})
	svc.Enable(wsrf.ServiceGroupPortType{})
	svc.RegisterServiceMethod(ActionReport, s.handleReport)
	svc.RegisterServiceMethod(ActionGetProcessors, s.handleGetProcessors)
	if !svc.Home().Exists(GroupResourceID) {
		if _, err := svc.CreateResource(GroupResourceID, wsrf.NewServiceGroupDocument()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// WSRF returns the underlying service for mounting.
func (s *Service) WSRF() *wsrf.Service { return s.svc }

// EPR returns the service endpoint.
func (s *Service) EPR() wsa.EndpointReference { return s.svc.EPR() }

// GroupEPR returns the processors group resource EPR.
func (s *Service) GroupEPR() wsa.EndpointReference { return s.svc.EPRFor(GroupResourceID) }

// processorContent renders a Processor as group-entry content.
func processorContent(p Processor, now time.Time) *xmlutil.Element {
	return xmlutil.NewContainer(qProcessor,
		xmlutil.NewElement(qHost, p.Host),
		xmlutil.NewElement(qCores, strconv.Itoa(p.Cores)),
		xmlutil.NewElement(qSpeedMHz, strconv.FormatFloat(p.SpeedMHz, 'f', -1, 64)),
		xmlutil.NewElement(qRAMMB, strconv.Itoa(p.RAMMB)),
		xmlutil.NewElement(qUtilization, strconv.FormatFloat(p.Utilization, 'f', 4, 64)),
		xmlutil.NewElement(qGridLoad, strconv.Itoa(p.GridLoad)),
		xmlutil.NewElement(qUpdatedAt, now.UTC().Format(time.RFC3339Nano)),
	)
}

// gridLoad reads the optional GridLoad child of a processor element.
func gridLoad(el *xmlutil.Element) (int, error) {
	text := el.ChildText(qGridLoad)
	if text == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(text)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("nis: bad grid load %q", text)
	}
	return n, nil
}

func processorFromEntry(e wsrf.Entry) (Processor, error) {
	c := e.Content
	if c == nil || c.Name != qProcessor {
		return Processor{}, fmt.Errorf("nis: entry %q has no processor content", e.Key)
	}
	p := Processor{Host: c.ChildText(qHost), ES: e.Member}
	var err error
	if p.Cores, err = strconv.Atoi(c.ChildText(qCores)); err != nil {
		return p, fmt.Errorf("nis: bad cores: %w", err)
	}
	if p.SpeedMHz, err = strconv.ParseFloat(c.ChildText(qSpeedMHz), 64); err != nil {
		return p, fmt.Errorf("nis: bad speed: %w", err)
	}
	if p.RAMMB, err = strconv.Atoi(c.ChildText(qRAMMB)); err != nil {
		return p, fmt.Errorf("nis: bad ram: %w", err)
	}
	if p.Utilization, err = strconv.ParseFloat(c.ChildText(qUtilization), 64); err != nil {
		return p, fmt.Errorf("nis: bad utilization: %w", err)
	}
	if p.GridLoad, err = gridLoad(c); err != nil {
		return p, err
	}
	if ts := c.ChildText(qUpdatedAt); ts != "" {
		if p.UpdatedAt, err = time.Parse(time.RFC3339Nano, ts); err != nil {
			return p, fmt.Errorf("nis: bad timestamp: %w", err)
		}
	}
	return p, nil
}

// ReportRequest builds a utilization report body.
func ReportRequest(p Processor) *xmlutil.Element {
	body := processorContent(p, time.Time{})
	body.Name = qReport
	body.Append(p.ES.ElementNamed(qES))
	return body
}

// handleReport ingests a utilization report, upserting the machine's
// group entry.
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
	p := Processor{Host: body.ChildText(qHost), ES: member}
	if p.Cores, err = strconv.Atoi(body.ChildText(qCores)); err != nil {
		return nil, soap.SenderFault("nis: bad cores: %v", err)
	}
	if p.SpeedMHz, err = strconv.ParseFloat(body.ChildText(qSpeedMHz), 64); err != nil {
		return nil, soap.SenderFault("nis: bad speed: %v", err)
	}
	if p.RAMMB, err = strconv.Atoi(body.ChildText(qRAMMB)); err != nil {
		return nil, soap.SenderFault("nis: bad ram: %v", err)
	}
	if p.Utilization, err = strconv.ParseFloat(body.ChildText(qUtilization), 64); err != nil {
		return nil, soap.SenderFault("nis: bad utilization: %v", err)
	}
	if p.GridLoad, err = gridLoad(body); err != nil {
		return nil, soap.SenderFault("%v", err)
	}
	content := processorContent(p, s.now())
	if err := s.svc.UpdateResource(GroupResourceID, func(doc *xmlutil.Element) error {
		wsrf.AddEntry(doc, member, content)
		return nil
	}); err != nil {
		return nil, err
	}
	return nil, nil
}

// handleGetProcessors answers the Scheduler's poll with every catalogued
// processor: its content plus its ES EPR.
func (s *Service) handleGetProcessors(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	procs, err := s.Processors()
	if err != nil {
		return nil, soap.ReceiverFault("nis: %v", err)
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
		p := Processor{Host: el.ChildText(qHost)}
		if esEl := el.Child(qES); esEl != nil {
			epr, err := wsa.ParseEPR(esEl)
			if err != nil {
				return nil, err
			}
			p.ES = epr
		}
		p.Cores, _ = strconv.Atoi(el.ChildText(qCores))
		p.SpeedMHz, _ = strconv.ParseFloat(el.ChildText(qSpeedMHz), 64)
		p.RAMMB, _ = strconv.Atoi(el.ChildText(qRAMMB))
		p.Utilization, _ = strconv.ParseFloat(el.ChildText(qUtilization), 64)
		p.GridLoad, _ = gridLoad(el)
		if ts := el.ChildText(qUpdatedAt); ts != "" {
			p.UpdatedAt, _ = time.Parse(time.RFC3339Nano, ts)
		}
		out = append(out, p)
	}
	return out, nil
}

// Processors reads the catalog server-side, sorted by host.
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

// ReportVia sends a one-way utilization report to a NIS — what each
// machine's Processor Utilization service does on threshold crossings.
func ReportVia(ctx context.Context, c *transport.Client, nis wsa.EndpointReference, p Processor) error {
	return c.Notify(ctx, nis, ActionReport, ReportRequest(p))
}
