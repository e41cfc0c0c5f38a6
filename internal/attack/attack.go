// Package attack implements every attack evaluated in the paper: the ten
// implicit-clock timing attacks of Table I's upper half (measured through
// the attacker's best available channel, exactly as a real adversary
// would) and exploit drivers for the twelve web-concurrency CVEs of its
// lower half.
//
// A timing attack succeeds against a defense when measurements of two
// secret variants remain statistically distinguishable (Cohen's d over the
// repetition budget); a CVE attack succeeds when the vulnerability
// registry observes the triggering sequence at the native layer.
package attack

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"jskernel/internal/defense"
	"jskernel/internal/stats"
	"jskernel/internal/vuln"
)

// Reps is the paper's repetition budget ("we run each test 25 times").
const Reps = 25

// TimingAttack is one implicit-clock attack row.
type TimingAttack struct {
	// ID is the machine-readable row key, e.g. "svg-filtering".
	ID string
	// Label is the row header with its paper citation, e.g. "SVG Filtering [9]".
	Label string
	// ClockGroup names the implicit clock section the row appears under in
	// Table I ("setTimeout" or "requestAnimationFrame").
	ClockGroup string
	// Measure performs one measurement of the given secret variant (0 or
	// 1) in a fresh environment, returning one value per measurement
	// channel. Returning an error marks the attack as failed-to-run
	// (counts as defended: the attacker got nothing).
	Measure func(env *defense.Env, variant int) (map[string]float64, error)
}

// CVEAttack is one web-concurrency CVE row.
type CVEAttack struct {
	CVE   vuln.CVE
	Label string
	// Exploit drives the triggering sequence in the environment. Errors
	// mean the attack could not even be attempted under this defense
	// (e.g. an API the defense removed), which counts as defended.
	Exploit func(env *defense.Env) error
}

// ChannelResult is the per-channel statistical outcome of a timing attack.
type ChannelResult struct {
	Channel string
	MeanA   float64
	MeanB   float64
	CohensD float64
	Leaks   bool
}

// Outcome is the verdict for one (attack, defense) cell of Table I.
type Outcome struct {
	AttackID  string
	DefenseID string
	Defended  bool
	// Channels holds per-channel statistics for timing attacks.
	Channels []ChannelResult
	// Samples retains the raw per-variant measurements per channel, for
	// criterion sensitivity analysis (e.g. Welch's t-test vs Cohen's d).
	Samples map[string][2][]float64
	// Exploited reports registry state for CVE attacks.
	Exploited bool
	// Err records a measurement failure, if any.
	Err error
}

// WelchDefended re-judges the outcome under Welch's t-test at the 1%
// level instead of the Cohen's d threshold.
func (o Outcome) WelchDefended() bool {
	for _, pair := range o.Samples {
		if len(pair[0]) == 0 || len(pair[1]) == 0 {
			continue
		}
		if stats.WelchDistinguishable(pair[0], pair[1]) {
			return false
		}
	}
	return true
}

// BestChannel returns the channel with the largest effect size.
func (o Outcome) BestChannel() ChannelResult {
	best := ChannelResult{}
	for _, c := range o.Channels {
		if c.CohensD >= best.CohensD {
			best = c
		}
	}
	return best
}

// RepSamples holds one repetition's per-channel, per-variant
// measurements. A single rep contributes at most one value per
// (channel, variant), so merging reps in rep order reconstructs exactly
// the sample streams a serial loop would have appended.
type RepSamples map[string][2][]float64

// MeasureRep performs one repetition of the attack — both secret
// variants, each in a fresh environment — and returns the measurements.
// Variant environments are seeded repSeedBase+variant+1, the
// per-(rep, variant) seed layout of every timing cell. This is the
// cell-sized unit of work the parallel experiment runner schedules: a
// rep touches nothing outside its own environments, so reps of the same
// (attack, defense) pair may run on different workers. Once the
// defense's runtime has been canceled, no further variant environment is
// built.
func (a *TimingAttack) MeasureRep(d defense.Defense, repSeedBase int64) RepSamples {
	samples := make(RepSamples)
	for variant := 0; variant < 2; variant++ {
		if d.Runtime.Stopped() {
			break
		}
		seed := repSeedBase + int64(variant) + 1
		env := d.NewEnv(defense.EnvOptions{Seed: seed})
		vals, err := a.Measure(env, variant)
		if err != nil {
			// The attack could not run under this defense (e.g. API
			// unavailable): the channel yields nothing.
			continue
		}
		for ch, v := range vals {
			if strings.HasPrefix(ch, "_") {
				// Harness metadata, not an attacker-observable value.
				continue
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			pair := samples[ch]
			// Each append target is keyed by the iteration variable, so
			// every channel's slice fills in rep order, not map order.
			//jsk:lint-ignore detmapiter append target is keyed by the range variable; per-channel order is rep order
			pair[variant] = append(pair[variant], v)
			samples[ch] = pair
		}
	}
	return samples
}

// MergeSamples concatenates per-rep sample sets in slice order. Callers
// must pass parts in rep order: that ordering — not the real-time order
// the reps finished in — is what keeps merged sample streams identical
// between serial and parallel evaluation.
func MergeSamples(parts []RepSamples) map[string][2][]float64 {
	merged := make(map[string][2][]float64)
	for _, part := range parts {
		// Channel names are sorted so the merge itself is deterministic;
		// per-channel sample order is fixed by part order alone (one value
		// per variant per rep).
		chans := make([]string, 0, len(part))
		for ch := range part {
			chans = append(chans, ch)
		}
		sort.Strings(chans)
		for _, ch := range chans {
			pair := merged[ch]
			pair[0] = append(pair[0], part[ch][0]...)
			pair[1] = append(pair[1], part[ch][1]...)
			merged[ch] = pair
		}
	}
	return merged
}

// AssembleOutcome computes the per-channel statistics and the defended
// verdict from fully merged samples.
func (a *TimingAttack) AssembleOutcome(defenseID string, samples map[string][2][]float64) Outcome {
	out := Outcome{AttackID: a.ID, DefenseID: defenseID, Defended: true, Samples: samples}
	// Walk channels in sorted order so Channels is reproducible — map
	// order would reshuffle the outcome between identical runs.
	chans := make([]string, 0, len(samples))
	for ch := range samples {
		chans = append(chans, ch)
	}
	sort.Strings(chans)
	for _, ch := range chans {
		pair := samples[ch]
		if len(pair[0]) == 0 || len(pair[1]) == 0 {
			continue
		}
		cr := ChannelResult{
			Channel: ch,
			MeanA:   stats.Mean(pair[0]),
			MeanB:   stats.Mean(pair[1]),
			CohensD: stats.CohensD(pair[0], pair[1]),
		}
		cr.Leaks = cr.CohensD >= stats.DistinguishableThreshold
		if cr.Leaks {
			out.Defended = false
		}
		out.Channels = append(out.Channels, cr)
	}
	return out
}

// errSkip marks attacks that could not start under a defense.
func errSkip(what string, err error) error {
	return fmt.Errorf("attack %s could not run: %w", what, err)
}
