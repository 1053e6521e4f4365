package wsrf

import (
	"fmt"
	"time"

	"uvacg/internal/soap"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

var (
	qBaseFault   = xmlutil.Q(NSBaseFaults, "BaseFault")
	qTimestamp   = xmlutil.Q(NSBaseFaults, "Timestamp")
	qOriginator  = xmlutil.Q(NSBaseFaults, "Originator")
	qErrorCode   = xmlutil.Q(NSBaseFaults, "ErrorCode")
	qDescription = xmlutil.Q(NSBaseFaults, "Description")
	qFaultCause  = xmlutil.Q(NSBaseFaults, "FaultCause")
)

// BaseFault is a WS-BaseFaults fault document: a typed, timestamped,
// chainable description of what went wrong, carried in the Detail of a
// SOAP fault. Every service in the testbed reports failures this way so
// clients can distinguish fault types programmatically.
type BaseFault struct {
	ErrorCode   string
	Description string
	Timestamp   time.Time
	Originator  wsa.EndpointReference
	Cause       *BaseFault
}

// NewBaseFault builds a fault with the current timestamp.
func NewBaseFault(code, format string, args ...any) *BaseFault {
	return &BaseFault{
		ErrorCode:   code,
		Description: fmt.Sprintf(format, args...),
		Timestamp:   time.Now().UTC(),
	}
}

// Error implements the error interface.
func (f *BaseFault) Error() string {
	if f.Cause != nil {
		return fmt.Sprintf("%s: %s (caused by %v)", f.ErrorCode, f.Description, f.Cause)
	}
	return fmt.Sprintf("%s: %s", f.ErrorCode, f.Description)
}

// Element renders the fault document.
func (f *BaseFault) Element() *xmlutil.Element {
	el := xmlutil.NewContainer(qBaseFault,
		xmlutil.NewElement(qTimestamp, f.Timestamp.UTC().Format(time.RFC3339Nano)),
		xmlutil.NewElement(qErrorCode, f.ErrorCode),
		xmlutil.NewElement(qDescription, f.Description),
	)
	if !f.Originator.IsZero() {
		el.Append(f.Originator.ElementNamed(qOriginator))
	}
	if f.Cause != nil {
		el.Append(xmlutil.NewContainer(qFaultCause, f.Cause.Element()))
	}
	return el
}

// SOAPFault wraps the fault document in a SOAP fault of the given code,
// suitable for returning from a handler.
func (f *BaseFault) SOAPFault(code string) *soap.Fault {
	return &soap.Fault{Code: code, Reason: f.Error(), Detail: f.Element()}
}

// ParseBaseFault decodes a fault document, recursing into causes.
func ParseBaseFault(el *xmlutil.Element) (*BaseFault, error) {
	if el == nil || el.Name != qBaseFault {
		return nil, fmt.Errorf("wsrf: element is not a BaseFault")
	}
	f := &BaseFault{
		ErrorCode:   el.ChildText(qErrorCode),
		Description: el.ChildText(qDescription),
	}
	if ts := el.ChildText(qTimestamp); ts != "" {
		t, err := time.Parse(time.RFC3339Nano, ts)
		if err != nil {
			return nil, fmt.Errorf("wsrf: bad fault timestamp %q: %w", ts, err)
		}
		f.Timestamp = t
	}
	if orig := el.Child(qOriginator); orig != nil {
		epr, err := wsa.ParseEPR(orig)
		if err != nil {
			return nil, fmt.Errorf("wsrf: bad fault originator: %w", err)
		}
		f.Originator = epr
	}
	if cause := el.Child(qFaultCause); cause != nil && len(cause.Children) > 0 {
		inner, err := ParseBaseFault(cause.Children[0])
		if err != nil {
			return nil, err
		}
		f.Cause = inner
	}
	return f, nil
}

// BaseFaultFromError extracts the BaseFault carried in a *soap.Fault
// error, if the detail holds one.
func BaseFaultFromError(err error) (*BaseFault, bool) {
	sf, ok := soap.AsFault(err)
	if !ok || sf.Detail == nil {
		return nil, false
	}
	bf, perr := ParseBaseFault(sf.Detail)
	if perr != nil {
		return nil, false
	}
	return bf, true
}
