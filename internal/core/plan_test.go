package core

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/mathx"
)

// TestCostModelPinned pins the planning-mode cost model to exact values:
// modelled seconds, memory peaks, the tiled auto chunk and both capacity
// walls on the paper's Tesla S10. The shape tests (TestPlanScalesLikePaper
// and friends) would not notice a drift of a few percent; this one notices
// any change to the allocation sequence, the launch sequence or a tally.
func TestCostModelPinned(t *testing.T) {
	props := gpu.TeslaS10()
	type run struct {
		p   Plan
		aux int // chunk (tiled) or devices used (multi); 0 untiled
		err error
	}
	withAux := func(p Plan, aux int, err error) run { return run{p, aux, err} }
	untiled := func(p Plan, err error) run { return run{p, 0, err} }
	cases := []struct {
		name    string
		run     run
		seconds float64
		peak    int64
		aux     int
	}{
		{"PlanGPU(1000, 50)", untiled(PlanGPU(1000, 50, props)), 0.15290470234238362, 9009664, 0},
		{"PlanGPU(20000, 50)", untiled(PlanGPU(20000, 50, props)), 29.86331397068475, 3220160768, 0},
		{"PlanGPUTiled(100000, 50, auto)", withAux(PlanGPUTiled(100000, 50, 0, props)), 856.4603689359261, 4084800768, 4980},
		{"PlanGPUMulti(28000, 50, 2)", withAux(PlanGPUMulti(28000, 50, 2, props)), 30.172468683276012, 3150225152, 2},
	}
	for _, c := range cases {
		p, aux, err := c.run.p, c.run.aux, c.run.err
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d := mathx.RelDiff(p.Seconds, c.seconds); d > 1e-12 {
			t.Errorf("%s: %.17g s, pinned %.17g (rel diff %g)", c.name, p.Seconds, c.seconds, d)
		}
		if p.Mem.Peak != c.peak {
			t.Errorf("%s: peak %d bytes, pinned %d", c.name, p.Mem.Peak, c.peak)
		}
		if aux != c.aux {
			t.Errorf("%s: chunk/devices %d, pinned %d", c.name, aux, c.aux)
		}
	}
	if got := MaxFeasibleN(50, props, 1<<17); got != 23107 {
		t.Errorf("MaxFeasibleN(50, TeslaS10, 1<<17) = %d, pinned 23107", got)
	}
	if got := MaxFeasibleNTiled(50, props, 1<<20); got != 1<<20 {
		t.Errorf("MaxFeasibleNTiled(50, TeslaS10, 1<<20) = %d, pinned %d", got, 1<<20)
	}
}
