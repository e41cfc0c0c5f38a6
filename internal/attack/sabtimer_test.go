package attack

import (
	"testing"

	"jskernel/internal/defense"
	"jskernel/internal/policy"
)

func TestSABTimerLeaksOnLegacy(t *testing.T) {
	out := evaluate(SABTimerAttack(), defense.Chrome(), testReps, 900)
	if out.Defended {
		t.Fatalf("SAB timer did not leak on legacy Chrome: %+v", out.Channels)
	}
	best := out.BestChannel()
	if best.Channel != ChannelSABDelta {
		t.Fatalf("leak channel = %s, want %s", best.Channel, ChannelSABDelta)
	}
	if best.MeanB <= best.MeanA {
		t.Fatalf("longer secret (%.0f) should accumulate more counter increments than shorter (%.0f)",
			best.MeanB, best.MeanA)
	}
}

// TestSABTimerKernelSerializationCoarsens: the standard kernel only
// routes accesses through its serializing queue; the channel remains but
// is coarsened by orders of magnitude (the paper notes SAB was simply
// disabled in browsers — see the hardening policy below).
func TestSABTimerKernelSerializationCoarsens(t *testing.T) {
	legacy := evaluate(SABTimerAttack(), defense.Chrome(), testReps, 900)
	kernelOut := evaluate(SABTimerAttack(), defense.JSKernel("chrome"), testReps, 900)
	lb, kb := legacy.BestChannel(), kernelOut.BestChannel()
	if lb.MeanB == 0 {
		t.Fatal("legacy measurement empty")
	}
	// Resolution = counter increments per unit of secret time. The
	// serializing queue caps increments at one per serialization interval
	// (150µs), a ~4x coarsening over the unmediated loop here; the point
	// is that it bounds the clock's rate, while DisableSharedBuffers
	// removes it (next test).
	legacyRate := lb.MeanB - lb.MeanA
	kernelRate := kb.MeanB - kb.MeanA
	if kernelRate*3 > legacyRate {
		t.Fatalf("kernel serialization should coarsen the SAB clock ≥3x: legacy delta %.0f vs kernel delta %.0f",
			legacyRate, kernelRate)
	}
}

// TestSABTimerClosedByHardeningPolicy: FullDefense + DisableSharedBuffers
// closes the channel completely.
func TestSABTimerClosedByHardeningPolicy(t *testing.T) {
	hardened := policy.Combine("jskernel-hardened",
		policy.DisableSharedBuffers(), policy.FullDefense())
	d := defense.JSKernelWithPolicy("chrome", "jskernel-hardened", hardened)
	out := evaluate(SABTimerAttack(), d, testReps, 900)
	if !out.Defended {
		t.Fatalf("hardened kernel leaked via SAB: %+v", out.Channels)
	}
	if len(out.Channels) != 0 {
		t.Fatalf("hardened kernel produced measurements: %+v (channel should be gone)", out.Channels)
	}
}

func TestExtensionAttacksCatalog(t *testing.T) {
	ext := ExtensionAttacks()
	if len(ext) != 1 || ext[0].ID != "sab-timer" {
		t.Fatalf("extension catalog = %+v", ext)
	}
}
