package core

import (
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/kernel"
	"repro/internal/mathx"
)

func TestMultiGPUMatchesSingle(t *testing.T) {
	d, g := paperSetup(t, 301, 25, 11)
	single, _, err := SelectGPU(d.X, d.Y, g, GPUOptions{KeepScores: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, devices := range []int{1, 2, 3, 5} {
		multi, err := SelectGPUMulti(d.X, d.Y, g, devices, GPUOptions{KeepScores: true})
		if err != nil {
			t.Fatalf("devices=%d: %v", devices, err)
		}
		if multi.Devices != devices {
			t.Errorf("devices recorded = %d", multi.Devices)
		}
		if multi.Index != single.Index {
			t.Errorf("devices=%d: index %d vs single %d", devices, multi.Index, single.Index)
		}
		// Host float64 combine vs device float32 reduction: tolerance.
		if mathx.RelDiff(multi.CV, single.CV) > 1e-4 {
			t.Errorf("devices=%d: CV %v vs %v", devices, multi.CV, single.CV)
		}
		if len(multi.DeviceSeconds) != devices || multi.ModelSeconds <= 0 {
			t.Errorf("devices=%d: timing bookkeeping %+v", devices, multi.DeviceSeconds)
		}
	}
	// One device runs the single-device kernel over the whole sample, so
	// for every device kernel its scores are SelectGPU's bit for bit.
	for _, kn := range []kernel.Kind{kernel.Epanechnikov, kernel.Uniform, kernel.Triangular} {
		opt := GPUOptions{Kernel: kn, KeepScores: true}
		want, _, err := SelectGPU(d.X, d.Y, g, opt)
		if err != nil {
			t.Fatalf("%v: %v", kn, err)
		}
		got, err := SelectGPUMulti(d.X, d.Y, g, 1, opt)
		if err != nil {
			t.Fatalf("%v: %v", kn, err)
		}
		for j := range want.Scores {
			if math.Float64bits(got.Scores[j]) != math.Float64bits(want.Scores[j]) {
				t.Errorf("%v h#%d: fleet %v vs single %v", kn, j, got.Scores[j], want.Scores[j])
				break
			}
		}
	}
	_, _, want := SelectGPU(d.X, d.Y, g, GPUOptions{Kernel: kernel.Gaussian})
	_, got := SelectGPUMulti(d.X, d.Y, g, 2, GPUOptions{Kernel: kernel.Gaussian})
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Errorf("gaussian: fleet error %v, single-device error %v", got, want)
	}
}

func TestMultiGPUMatchesHost(t *testing.T) {
	d, g := paperSetup(t, 150, 20, 3)
	seq, err := SortedSequential(d.X, d.Y, g)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := SelectGPUMulti(d.X, d.Y, g, 2, GPUOptions{KeepScores: true})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Index != seq.Index {
		t.Errorf("multi-GPU %d vs sequential %d", multi.Index, seq.Index)
	}
	for j := range g.H {
		if mathx.RelDiff(multi.Scores[j], seq.Scores[j]) > 1e-4 {
			t.Errorf("h#%d: %v vs %v", j, multi.Scores[j], seq.Scores[j])
			break
		}
	}
}

func TestMultiGPUNearlyHalvesModelledTime(t *testing.T) {
	// Two concurrent devices each process half the observations: the
	// modelled wall time should approach half the single-device time at
	// sizes where the main kernel dominates (plus the per-device fixed
	// overheads, which do not halve).
	props := gpu.TeslaS10()
	single, err := PlanGPU(10000, 50, props)
	if err != nil {
		t.Fatal(err)
	}
	dual, used, err := PlanGPUMulti(10000, 50, 2, props)
	if err != nil {
		t.Fatal(err)
	}
	if used != 2 {
		t.Fatalf("devices used = %d", used)
	}
	ratio := dual.Seconds / single.Seconds
	if ratio > 0.65 || ratio < 0.40 {
		t.Errorf("dual/single = %.3f (%.3fs vs %.3fs), want ≈ 0.5 + overheads", ratio, dual.Seconds, single.Seconds)
	}
}

func TestMultiGPUExtendsMemoryWall(t *testing.T) {
	// One 4 GB device OOMs at n = 25,000; two devices hold (n/2)×n
	// scratch each, which fits well past 30,000.
	props := gpu.TeslaS10()
	if _, err := PlanGPU(28000, 50, props); err == nil {
		t.Fatal("single device should OOM at 28,000 (sanity)")
	}
	dual, _, err := PlanGPUMulti(28000, 50, 2, props)
	if err != nil {
		t.Fatalf("two devices should fit n=28,000: %v", err)
	}
	if dual.Mem.Peak > props.GlobalMemBytes {
		t.Error("per-device peak exceeds capacity")
	}
	// But not indefinitely: (n/2)·n still grows quadratically.
	if _, _, err := PlanGPUMulti(80000, 50, 2, props); err == nil {
		t.Error("n=80,000 should still OOM on two devices")
	}
}

func TestMultiGPUDegenerateInputs(t *testing.T) {
	d, g := paperSetup(t, 30, 5, 1)
	// devices > n clamps; devices <= 0 becomes 1.
	for _, devices := range []int{0, -3, 50} {
		multi, err := SelectGPUMulti(d.X, d.Y, g, devices, GPUOptions{})
		if err != nil {
			t.Fatalf("devices=%d: %v", devices, err)
		}
		seq, _ := SortedSequential(d.X, d.Y, g)
		if multi.Index != seq.Index {
			t.Errorf("devices=%d: wrong selection", devices)
		}
	}
	if _, err := SelectGPUMulti(d.X[:1], d.Y[:1], g, 2, GPUOptions{}); err == nil {
		t.Error("single observation should fail")
	}
}
