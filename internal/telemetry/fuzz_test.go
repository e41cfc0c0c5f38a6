package telemetry

import (
	"strings"
	"testing"
)

// FuzzParseExposition feeds arbitrary text to ParseExposition, the
// parser of /metricsz scrapes. The contract: no panic, and accepted text
// round-trips: WriteExposition of the parsed families gives text that
// parses again and renders back to the same bytes. Comparing rendered
// text rather than parsed values sidesteps NaN never equalling itself.
//
// The seed corpus under testdata/fuzz/FuzzParseExposition holds two real
// /metricsz scrapes (service families only, and with the telemetry
// plane on) and malformed text: a # TYPE after its sample, decreasing
// cumulative buckets, a missing # EOF and a bad label escape. Minimizing
// an input derived from a whole scrape is slow, so run the fuzzer with a
// short minimization cap:
//
//	go test ./internal/telemetry -run '^$' -fuzz FuzzParseExposition -fuzztime 30s -fuzzminimizetime 1s
func FuzzParseExposition(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		fams, err := ParseExposition(text)
		if err != nil {
			return
		}
		var once, twice strings.Builder
		if err := WriteExposition(&once, fams); err != nil {
			t.Fatalf("rendering accepted families: %v", err)
		}
		again, err := ParseExposition(once.String())
		if err != nil {
			t.Fatalf("rendering of accepted text does not parse: %v\n%s", err, once.String())
		}
		if err := WriteExposition(&twice, again); err != nil {
			t.Fatalf("rendering re-parsed families: %v", err)
		}
		if once.String() != twice.String() {
			t.Fatalf("round trip changed the text:\n%s\nthen:\n%s", once.String(), twice.String())
		}
	})
}
