package daemon_test

import (
	"reflect"
	"strings"
	"testing"

	"uvacg/internal/daemon"
	"uvacg/internal/wssec"
)

// TestParseAccounts: -accounts is user:password pairs, comma-separated.
// Empty is no table (no security). A password may hold ':'. A pair with
// no colon, an empty user name (no token could name it) and a user given
// twice (one password would be dropped silently) are refused, naming the
// pair.
func TestParseAccounts(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     wssec.StaticAccounts
		refused  string // the pair the error names; "" when accepted
	}{
		{"empty", "", nil, ""},
		{"two-pairs", "scientist:secret,alice:pw", wssec.StaticAccounts{"scientist": "secret", "alice": "pw"}, ""},
		{"colon-in-password", "alice:a:b", wssec.StaticAccounts{"alice": "a:b"}, ""},
		{"empty-password", "alice:", wssec.StaticAccounts{"alice": ""}, ""},
		{"missing-colon", "alice:pw,bob", nil, `"bob"`},
		{"empty-user", ":pw", nil, `":pw"`},
		{"repeated-user", "a:1,a:2", nil, `"a:2"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := daemon.ParseAccounts(tc.in)
			if tc.refused != "" {
				if err == nil || !strings.Contains(err.Error(), tc.refused) {
					t.Fatalf("ParseAccounts(%q) = %v, %v; want an error naming %s", tc.in, got, err, tc.refused)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, tc.want) || (got == nil) != (tc.want == nil) {
				t.Fatalf("ParseAccounts(%q) = %#v, %v; want %#v", tc.in, got, err, tc.want)
			}
		})
	}
}
