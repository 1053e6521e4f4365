package wsa

import (
	"testing"

	"uvacg/internal/soap"
	"uvacg/internal/xmlutil"
)

func TestApplyAndExtract(t *testing.T) {
	target := NewEPR("http://node-a/ExecutionService").WithProperty(qRID, "job-9")
	env := soap.New(xmlutil.NewElement(xmlutil.Q(nsR, "Kill"), ""))
	Apply(env, target, "urn:uvacg:es:Kill")

	// The envelope must survive the wire.
	data, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := soap.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Extract(back)
	if err != nil {
		t.Fatal(err)
	}
	if info.Action != "urn:uvacg:es:Kill" {
		t.Errorf("action = %q", info.Action)
	}
	if !info.To.Equal(target) {
		t.Errorf("To EPR = %v, want %v", info.To, target)
	}
	if info.MessageID == "" {
		t.Error("missing MessageID")
	}
}

func TestApplyIsIdempotentOnReuse(t *testing.T) {
	env := soap.New(xmlutil.NewElement(xmlutil.Q(nsR, "Ping"), ""))
	Apply(env, NewEPR("http://a/S"), "urn:A")
	Apply(env, NewEPR("http://b/S"), "urn:B")
	info, err := Extract(env)
	if err != nil {
		t.Fatal(err)
	}
	if info.To.Address != "http://b/S" || info.Action != "urn:B" {
		t.Fatalf("stale headers survived reapplication: %+v", info)
	}
	count := 0
	for _, h := range env.Headers {
		if h.Name == qAction {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d Action headers after reapply", count)
	}
}

func TestExtractRequiresAction(t *testing.T) {
	env := soap.New(xmlutil.NewElement(xmlutil.Q(nsR, "x"), ""))
	if _, err := Extract(env); err == nil {
		t.Fatal("expected error for missing Action")
	}
}

func TestReplyHeaders(t *testing.T) {
	req := soap.New(xmlutil.NewElement(xmlutil.Q(nsR, "Read"), "f.txt"))
	Apply(req, NewEPR("http://a/FSS"), "urn:Read")
	reqInfo, err := Extract(req)
	if err != nil {
		t.Fatal(err)
	}

	resp := soap.New(xmlutil.NewElement(xmlutil.Q(nsR, "ReadResponse"), "data"))
	ApplyReply(resp, reqInfo, "urn:ReadResponse")
	respInfo, err := Extract(resp)
	if err != nil {
		t.Fatal(err)
	}
	if respInfo.RelatesTo != reqInfo.MessageID {
		t.Errorf("RelatesTo = %q, want %q", respInfo.RelatesTo, reqInfo.MessageID)
	}
	if respInfo.MessageID == reqInfo.MessageID {
		t.Error("reply must carry a fresh MessageID")
	}
}

func TestReplyToRoundTrip(t *testing.T) {
	listener := NewEPR("soap.tcp://client:9000/files").WithProperty(qRID, "session-1")
	env := soap.New(xmlutil.NewElement(xmlutil.Q(nsR, "Upload"), ""))
	Apply(env, NewEPR("http://a/FSS"), "urn:Upload")
	env.AddHeader(listener.ElementNamed(qReplyTo))

	data, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := soap.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Extract(back)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ReplyTo.Equal(listener) {
		t.Fatalf("ReplyTo = %v", info.ReplyTo)
	}
}
