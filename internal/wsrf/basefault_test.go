package wsrf

import (
	"strings"
	"testing"

	"uvacg/internal/soap"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

func TestBaseFaultRoundTrip(t *testing.T) {
	origin := wsa.NewEPR("inproc://node-a/ExecutionService").WithProperty(QResourceID, "job-3")
	inner := NewBaseFault("ProcSpawnFault", "process exited %d", 137)
	f := NewBaseFault("JobStartFault", "could not start job")
	f.Originator, f.Cause = origin, inner

	data, err := xmlutil.MarshalElement(f.Element())
	if err != nil {
		t.Fatal(err)
	}
	el, err := xmlutil.UnmarshalElement(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseBaseFault(el)
	if err != nil {
		t.Fatal(err)
	}
	if back.ErrorCode != "JobStartFault" || back.Description != "could not start job" {
		t.Fatalf("got %+v", back)
	}
	if !back.Originator.Equal(origin) {
		t.Fatalf("originator = %v", back.Originator)
	}
	if back.Cause == nil || back.Cause.ErrorCode != "ProcSpawnFault" {
		t.Fatalf("cause = %+v", back.Cause)
	}
	if back.Timestamp.IsZero() {
		t.Fatal("timestamp lost")
	}
}

func TestBaseFaultErrorString(t *testing.T) {
	f := NewBaseFault("A", "top")
	f.Cause = NewBaseFault("B", "bottom")
	msg := f.Error()
	if !strings.Contains(msg, "A: top") || !strings.Contains(msg, "B: bottom") {
		t.Fatalf("Error() = %q", msg)
	}
}

func TestBaseFaultThroughSOAPFault(t *testing.T) {
	f := NewBaseFault("ResourceUnknownFault", "gone")
	sf := f.SOAPFault(soap.CodeSender)
	if sf.Code != soap.CodeSender {
		t.Errorf("code = %q", sf.Code)
	}
	// A client receiving the fault recovers the typed document.
	data, err := sf.Envelope().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	env, err := soap.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := soap.ParseFault(env.Body)
	if err != nil {
		t.Fatal(err)
	}
	bf, ok := BaseFaultFromError(parsed)
	if !ok || bf.ErrorCode != "ResourceUnknownFault" {
		t.Fatalf("BaseFaultFromError = %v %v", bf, ok)
	}
}

func TestBaseFaultFromErrorNegative(t *testing.T) {
	if _, ok := BaseFaultFromError(soap.SenderFault("plain")); ok {
		t.Fatal("plain fault should not decode as BaseFault")
	}
	if _, ok := BaseFaultFromError(nil); ok {
		t.Fatal("nil error should not decode")
	}
}

func TestParseBaseFaultRejects(t *testing.T) {
	if _, err := ParseBaseFault(nil); err == nil {
		t.Fatal("nil element accepted")
	}
	if _, err := ParseBaseFault(xmlutil.NewElement(xmlutil.Q("urn:x", "y"), "")); err == nil {
		t.Fatal("wrong element accepted")
	}
}
