package explore

import (
	"reflect"
	"slices"
	"testing"

	"jskernel/internal/vuln"
)

// FuzzParseToken feeds arbitrary strings to the replay-token parser
// behind jsk-explore -replay. The contract: no panic; an accepted token
// names a CVE of the modeled corpus, every choice in its vector is ≥ 0,
// and its String() parses back to an equal token.
//
// The seed corpus under testdata/fuzz/FuzzParseToken covers the
// default-order token, a non-empty choice vector, and each malformed
// shape TestTokenRejectsMalformed lists. Run the fuzzer with:
//
//	go test ./internal/explore -run '^$' -fuzz FuzzParseToken -fuzztime 30s
func FuzzParseToken(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		tok, err := ParseToken(s)
		if err != nil {
			return
		}
		if !slices.Contains(vuln.All(), tok.CVE) {
			t.Fatalf("accepted %q with CVE %q outside the modeled corpus", s, tok.CVE)
		}
		for i, v := range tok.Vector {
			if v < 0 {
				t.Fatalf("accepted %q with choice %d = %d", s, i, v)
			}
		}
		back, err := ParseToken(tok.String())
		if err != nil {
			t.Fatalf("%q parsed, but its encoding %q does not: %v", s, tok.String(), err)
		}
		if !reflect.DeepEqual(back, tok) {
			t.Fatalf("%q round-trips through %q to %+v, want %+v", s, tok.String(), back, tok)
		}
	})
}
