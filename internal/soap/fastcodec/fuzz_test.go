package fastcodec

import (
	"testing"

	"uvacg/internal/xmlutil"
)

// FuzzCodecEquivalence is the differential contract of the fast path:
// whenever Decode accepts a document, the encoding/xml reference path
// must accept it too and produce an Equal tree; and whenever
// appendElement accepts the decoded tree, the reference decoder must
// read the fast bytes back to the same tree. ok=false is always
// allowed — it just routes the document to the fallback — so the fuzz
// only has to prove the fast path never *disagrees*.
func FuzzCodecEquivalence(f *testing.F) {
	// Captured wire envelopes from the services (scheduler submit,
	// WS-Addressing headers, notification delivery, resource property
	// responses, faults) plus shape-stressing constructions.
	seeds := []string{
		`<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Header><Action xmlns="http://www.w3.org/2005/08/addressing">http://uvacg/scheduler/Submit</Action><To xmlns="http://www.w3.org/2005/08/addressing">soap.tcp://127.0.0.1:9601/scheduler</To><MessageID xmlns="http://www.w3.org/2005/08/addressing">urn:uuid:7f2c</MessageID><ResourceID xmlns="http://uvacg/wsrf" IsReferenceParameter="true">jobset-42</ResourceID></Header><Body><Submit xmlns="http://uvacg/scheduler"><Document>&lt;JobSet&gt;&lt;/JobSet&gt;</Document></Submit></Body></Envelope>`,
		`<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Body><Notify xmlns="http://docs.oasis-open.org/wsn/b-2"><NotificationMessage><Topic Dialect="http://docs.oasis-open.org/wsn/t-1/TopicExpression/Simple">jobset-42/changed</Topic><Message><JobStatus xmlns="http://uvacg/scheduler"><Name>render-1</Name><State>Finished</State><Exit>0</Exit></JobStatus></Message></NotificationMessage></Notify></Body></Envelope>`,
		`<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Body><Fault><Code><Value>Sender</Value></Code><Reason><Text xml:lang="en">wrong shard: jobset maps to shard 3</Text></Reason><Detail><WrongShard xmlns="http://uvacg/scheduler" Shard="3"><Owner>soap.tcp://10.0.0.2:9601/scheduler</Owner></WrongShard></Detail></Fault></Body></Envelope>`,
		`<GetResourcePropertyResponse xmlns="http://docs.oasis-open.org/wsrf/rp-2"><Utilization xmlns="http://uvacg/nis">0.25</Utilization></GetResourcePropertyResponse>`,
		`<a b="1" c="&amp;x" xmlns:p="urn:p" p:d="q&#xA;r">mixed <b>child</b> tail</a>`,
		`<r xmlns="u1"><k xmlns="">plain<deep xmlns="u2">x</deep></k></r>`,
		`<m>cr` + "\r\n" + `lf` + "\r" + `solo</m>`,
		`<dup a='1' a="2"/>`,
		`<a><![CDATA[fallback]]></a>`,
		`<a>&unknown;</a>`,
		`<a>]]></a>`,
		"<a>caf\xc3\xa9</a>",
		`<u undeclared:x="1" xml:space="preserve"/>`,
		`<!DOCTYPE x><x/>`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fast, ok := Decode(data)
		if !ok {
			return // fallback path owns the document
		}
		ref, err := xmlutil.UnmarshalElement(data)
		if err != nil {
			t.Fatalf("fast decode accepted %q but encoding/xml rejects it: %v", data, err)
		}
		if !fast.Equal(ref) {
			t.Fatalf("decode disagrees on %q:\n fast: %s\n ref:  %s", data, fast, ref)
		}
		enc, ok := appendElement(nil, fast)
		if !ok {
			return
		}
		back, err := xmlutil.UnmarshalElement(enc)
		if err != nil {
			t.Fatalf("encoding/xml rejects fast encoding %q of %q: %v", enc, data, err)
		}
		if !back.Equal(fast) {
			t.Fatalf("encode round trip disagrees on %q:\n bytes: %q\n back: %s\n tree: %s", data, enc, back, fast)
		}
		again, ok := Decode(enc)
		if !ok {
			t.Fatalf("fast decode refuses fast encoding %q of %q", enc, data)
		}
		if !again.Equal(fast) {
			t.Fatalf("fast re-decode disagrees on %q: %s vs %s", enc, again, fast)
		}
	})
}
