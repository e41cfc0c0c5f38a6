package explore

import (
	"testing"

	"jskernel/internal/attack"
	"jskernel/internal/defense"
	"jskernel/internal/hb"
	"jskernel/internal/sim"
	"jskernel/internal/trace"
	"jskernel/internal/vuln"
)

// hiddenRaceAttack builds a synthetic cell whose race is invisible in
// the default schedule and manifests only when the tie is reversed:
// two same-virtual-time events, scheduled main-first. The main write
// commits at its dispatch time; the worker write models a long task,
// committing 1ms later. In default order the record stream is
// (t1@1ms, t2@2ms) — unordered but 1ms apart, outside hb.Window, so no
// finding. Reversed, the stream is (t2@2ms, t1@1ms): a later record
// with an earlier commit time means the tasks genuinely overlapped
// (the signed-window rule), and the detector fires. Discovering it
// therefore requires actually steering the scheduler — exactly what
// PCT and DPOR are for.
func hiddenRaceAttack() *attack.CVEAttack {
	return &attack.CVEAttack{
		CVE:   vuln.CVE20143194,
		Label: "synthetic hidden buffer race",
		Exploit: func(env *defense.Env) error {
			s := env.Sim
			tr := env.Trace
			s.Schedule(1*sim.Millisecond, "main-write", func() {
				tr.Emit(trace.Record{Run: 1, VT: s.Now(), Thread: 1,
					Op: trace.OpAccess, API: "buffer", Value: 7, Action: "w"})
			})
			s.Schedule(1*sim.Millisecond, "worker-write", func() {
				tr.Emit(trace.Record{Run: 1, VT: s.Now() + sim.Millisecond, Thread: 2,
					Op: trace.OpAccess, API: "buffer", Value: 7, Action: "w"})
			})
			return s.Run()
		},
	}
}

func hiddenSpec(t *testing.T) runSpec {
	t.Helper()
	_, def, err := column("chrome")
	if err != nil {
		t.Fatalf("defense: %v", err)
	}
	return runSpec{Attack: hiddenRaceAttack(), Defense: def, EnvSeed: 1}
}

// TestHiddenRaceInvisibleByDefault pins the fixture's premise: the
// default schedule must NOT show the race (otherwise the strategy tests
// below prove nothing).
func TestHiddenRaceInvisibleByDefault(t *testing.T) {
	spec := hiddenSpec(t)
	spec.Wide = true
	res := runSchedule(spec)
	if f := firstOn(res.findings, "buffer"); f != nil {
		t.Fatalf("default schedule already shows the race: %+v", *f)
	}
	// ...but the wide-window detector must see the unordered pair, or
	// DPOR has no reversal candidate.
	if f := firstOn(res.wide, "buffer"); f == nil {
		t.Fatalf("wide-window detector missed the unordered pair; wide findings: %+v", res.wide)
	}
}

// TestDPORDiscoversHiddenRace: DPOR mines the default run's unordered
// pair, reverses the tie, and finds the race — within a tiny budget,
// deterministically.
func TestDPORDiscoversHiddenRace(t *testing.T) {
	out := dporSearch(hiddenSpec(t), "buffer", 8)
	if out.found == nil {
		t.Fatalf("DPOR exhausted %d executions without finding the race", out.executions)
	}
	if out.executions > 2 {
		t.Fatalf("DPOR needed %d executions, want the direct reversal on the 2nd", out.executions)
	}
	if out.found.Class != "buffer" {
		t.Fatalf("found class %q, want buffer", out.found.Class)
	}
	// The discovering vector, replayed, reproduces the identical race.
	spec := hiddenSpec(t)
	spec.Inner = NewReplay(out.vector)
	spec.StopClass = "buffer"
	res := runSchedule(spec)
	f := firstOn(res.findings, "buffer")
	if f == nil {
		t.Fatalf("replay of discovering vector %v shows no race", out.vector)
	}
	if findingsJSON([]hb.Finding{*f}) != findingsJSON([]hb.Finding{*out.found}) {
		t.Fatalf("replayed finding differs from live discovery:\nlive:   %+v\nreplay: %+v", *out.found, *f)
	}
}

// TestPCTDiscoversHiddenRace: some PCT seed within a small budget picks
// the worker-first order at the tie. Deterministic: once a seed works,
// it always works.
func TestPCTDiscoversHiddenRace(t *testing.T) {
	spec := hiddenSpec(t)
	found := -1
	for s := 1; s <= 8; s++ {
		spec.Inner = NewPCT(sim.DeriveSeed(1, int64(s)), 3, 16)
		spec.StopClass = "buffer"
		res := runSchedule(spec)
		if firstOn(res.findings, "buffer") != nil {
			found = s
			break
		}
	}
	if found < 0 {
		t.Fatal("no PCT schedule in budget 8 reversed the tie")
	}
}
