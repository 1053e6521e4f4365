package transport

import (
	"context"
	"strings"
	"sync"
	"testing"

	"uvacg/internal/soap"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

// TestDecodedRequestSurvivesNextOnConnection: a decoded envelope's
// strings point into the bytes it was read from, so a binding must read
// every message into a buffer of its own. A handler keeps the request it
// was given; the next exchange on the same pooled connection, as long
// and with other bytes, must leave the kept tree as it was.
func TestDecodedRequestSurvivesNextOnConnection(t *testing.T) {
	for _, b := range allBindings() {
		if b.name == "inproc" || b.name == "colocated" {
			continue
		}
		t.Run(b.name, func(t *testing.T) {
			var mu sync.Mutex
			var kept []*xmlutil.Element
			var wants []string // serialized as received: a Clone would share the strings
			d := soap.NewDispatcher()
			d.Register("urn:Keep", func(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
				mu.Lock()
				kept = append(kept, req.Body)
				wants = append(wants, req.Body.String())
				mu.Unlock()
				return nil, nil
			})
			mux := soap.NewMux()
			mux.Handle("/Keep", d)
			base, client := b.start(t, NewServer(mux))
			to := wsa.NewEPR(base + "/Keep")
			for _, fill := range []string{"a", "b"} {
				body := xmlutil.NewElement(xmlutil.Q("urn:keep", "Item"), strings.Repeat(fill, 64)).
					SetAttr(xmlutil.Q("", "tag"), strings.Repeat(fill, 8))
				if _, err := client.Call(context.Background(), to, "urn:Keep", body); err != nil {
					t.Fatal(err)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if len(kept) != 2 {
				t.Fatalf("the handler kept %d requests, want 2", len(kept))
			}
			for i := range kept {
				if got := kept[i].String(); got != wants[i] {
					t.Errorf("request %d changed after the next exchange:\n got: %s\nwant: %s", i, got, wants[i])
				}
			}
		})
	}
}
