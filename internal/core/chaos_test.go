package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/bandwidth"
	"repro/internal/data"
	"repro/internal/gpu"
	"repro/internal/mathx"
)

// Chaos battery: inject each fault class at randomized points during
// concurrent fleet selections and assert, against the healthy fleet
// result (itself index-agreeing with the float64 oracle via the golden
// and conformance suites), that every request completes with a result
// bit-identical to the healthy run or a clean typed device error —
// never a partial, wrong, or lost response. Runs under -race in CI.

const chaosDevices = 3

func chaosSetup(t *testing.T) (data.Dataset, bandwidth.Grid, MultiGPUResult) {
	t.Helper()
	d, g := paperSetup(t, 192, 16, 29)
	m, err := gpu.NewSimManager(chaosDevices, gpu.TeslaS10())
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := SelectGPUFleetContext(context.Background(), d.X, d.Y, g, m, GPUOptions{KeepScores: true})
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Requeues != 0 || healthy.Degraded != 0 {
		t.Fatalf("healthy run reports faults: %+v", healthy)
	}
	return d, g, healthy
}

// assertBitIdentical requires got to match the healthy baseline bit for
// bit — index, bandwidth, CV, and every score.
func assertBitIdentical(t *testing.T, got MultiGPUResult, want MultiGPUResult) {
	t.Helper()
	if got.Index != want.Index || got.H != want.H || got.CV != want.CV {
		t.Fatalf("faulted run differs from healthy: got index=%d h=%v cv=%v, want index=%d h=%v cv=%v",
			got.Index, got.H, got.CV, want.Index, want.H, want.CV)
	}
	if len(got.Scores) != len(want.Scores) {
		t.Fatalf("score length %d vs %d", len(got.Scores), len(want.Scores))
	}
	for j := range want.Scores {
		if got.Scores[j] != want.Scores[j] {
			t.Fatalf("score[%d] differs bitwise: %v vs %v", j, got.Scores[j], want.Scores[j])
		}
	}
}

// TestChaosBattery is the headline test: for every fault class, ≥16
// concurrent selections each with a randomized injection point on its
// own 3-device fleet. A single-device fault always leaves survivors, so
// every request must succeed AND be bit-identical to the healthy run.
func TestChaosBattery(t *testing.T) {
	d, g, healthy := chaosSetup(t)
	const clients = 16

	inject := map[string]func(m *gpu.SimManager, rng *rand.Rand) func(){
		"xid": func(m *gpu.SimManager, rng *rand.Rand) func() {
			dev := rng.Intn(chaosDevices)
			if err := m.InjectXID(dev, 79, 1+rng.Int63n(40)); err != nil {
				panic(err)
			}
			return nil
		},
		"falls-off-bus": func(m *gpu.SimManager, rng *rand.Rand) func() {
			// Inject from a concurrent goroutine after a random delay, so
			// the device drops while kernels are in flight.
			dev := rng.Intn(chaosDevices)
			delay := time.Duration(rng.Intn(1500)) * time.Microsecond
			return func() {
				time.Sleep(delay)
				if err := m.InjectFallOffBus(dev); err != nil {
					panic(err)
				}
			}
		},
		"memory-pressure": func(m *gpu.SimManager, rng *rand.Rand) func() {
			dev := rng.Intn(chaosDevices)
			if err := m.InjectMemPressure(dev, rng.Int63n(1<<20)); err != nil {
				panic(err)
			}
			return nil
		},
	}

	for class, arm := range inject {
		class, arm := class, arm
		t.Run(class, func(t *testing.T) {
			t.Parallel()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					m, err := gpu.NewSimManager(chaosDevices, gpu.TeslaS10())
					if err != nil {
						t.Error(err)
						return
					}
					concurrent := arm(m, rng)
					var injWG sync.WaitGroup
					if concurrent != nil {
						injWG.Add(1)
						go func() { defer injWG.Done(); concurrent() }()
					}
					r, err := SelectGPUFleetContext(context.Background(), d.X, d.Y, g, m, GPUOptions{KeepScores: true})
					injWG.Wait()
					if err != nil {
						// With one faulted device out of three, survivors
						// must finish: any error here is a lost request.
						t.Errorf("%s seed %d: request lost to %v", class, seed, err)
						return
					}
					assertBitIdentical(t, r, healthy)
					if r.Requeues > 0 && r.Degraded == 0 {
						t.Errorf("%s seed %d: %d requeues but no degraded device recorded", class, seed, r.Requeues)
					}
					if r.Requeues > 0 && m.TotalHealthEvents() == 0 {
						t.Errorf("%s seed %d: requeues without a health event", class, seed)
					}
				}(int64(1000*len(class) + c))
			}
			wg.Wait()
		})
	}
}

// TestChaosCountersDeterministic pins the bookkeeping for a fault with
// a known topology: device 1 of 3 dropped before the run means exactly
// its one shard requeues, one device is degraded, and one health event
// is recorded — and the answer is still bit-identical to healthy.
func TestChaosCountersDeterministic(t *testing.T) {
	d, g, healthy := chaosSetup(t)
	m, err := gpu.NewSimManager(chaosDevices, gpu.TeslaS10())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InjectFallOffBus(1); err != nil {
		t.Fatal(err)
	}
	r, err := SelectGPUFleetContext(context.Background(), d.X, d.Y, g, m, GPUOptions{KeepScores: true})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, r, healthy)
	if r.Requeues != 1 {
		t.Errorf("Requeues = %d, want 1 (the lost device's single shard)", r.Requeues)
	}
	if r.Degraded != 1 {
		t.Errorf("Degraded = %d, want 1", r.Degraded)
	}
	if n := m.TotalHealthEvents(); n != 1 {
		t.Errorf("TotalHealthEvents = %d, want 1", n)
	}
	evs := m.CollectHealthEvents()
	if len(evs) != 1 || evs[0].Kind != "fell-off-bus" || evs[0].Device != 1 {
		t.Errorf("events = %+v", evs)
	}
	// An XID mid-sweep on a fresh fleet: the faulted shard requeues too.
	m2, err := gpu.NewSimManager(chaosDevices, gpu.TeslaS10())
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.InjectXID(2, 48, 1); err != nil {
		t.Fatal(err)
	}
	r2, err := SelectGPUFleetContext(context.Background(), d.X, d.Y, g, m2, GPUOptions{KeepScores: true})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, r2, healthy)
	if r2.Requeues != 1 || r2.Degraded != 1 {
		t.Errorf("XID run: requeues=%d degraded=%d, want 1/1", r2.Requeues, r2.Degraded)
	}
	h, err := m2.DeviceHealth(2)
	if err != nil {
		t.Fatal(err)
	}
	if h.State != gpu.Degraded || h.LastXID != 48 {
		t.Errorf("device 2 health = %+v", h)
	}
}

// TestChaosAllDevicesLost is the unrecoverable topology: when every
// device is gone the scheduler must fail with the typed fleet error,
// never hang or fabricate a result.
func TestChaosAllDevicesLost(t *testing.T) {
	d, g := paperSetup(t, 48, 8, 5)
	m, err := gpu.NewSimManager(2, gpu.TeslaS10())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := m.InjectFallOffBus(i); err != nil {
			t.Fatal(err)
		}
	}
	r, err := SelectGPUFleetContext(context.Background(), d.X, d.Y, g, m, GPUOptions{})
	if !errors.Is(err, ErrNoHealthyDevices) {
		t.Fatalf("err = %v, want ErrNoHealthyDevices", err)
	}
	if r.H != 0 || r.CV != 0 || r.Scores != nil {
		t.Fatalf("failed run leaked a partial result: %+v", r)
	}
	// Same on a single-device fleet where the only device XIDs out.
	m1, err := gpu.NewSimManager(1, gpu.TeslaS10())
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.InjectXID(0, 79, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := SelectGPUFleetContext(context.Background(), d.X, d.Y, g, m1, GPUOptions{}); !errors.Is(err, ErrNoHealthyDevices) {
		t.Fatalf("single-device XID: err = %v, want ErrNoHealthyDevices", err)
	}
}

// FuzzMultiGPUFaultPlan drives the fleet scheduler with random problem
// shapes and fault plans: it must never panic, and every outcome is
// either bit-identical to the healthy fleet run (cross-checked against
// the tiled float32 pipeline within class tolerance) or a typed device
// error.
func FuzzMultiGPUFaultPlan(f *testing.F) {
	f.Add(uint8(32), uint8(8), uint8(3), uint8(1), uint8(0), uint8(2))
	f.Add(uint8(100), uint8(12), uint8(2), uint8(0), uint8(1), uint8(0))
	f.Add(uint8(7), uint8(3), uint8(4), uint8(3), uint8(2), uint8(9))
	f.Add(uint8(2), uint8(1), uint8(1), uint8(0), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, nn, kk, dd, fdev, fkind, fstep uint8) {
		n := 2 + int(nn)%129     // 2..130
		k := 1 + int(kk)%16      // 1..16
		devices := 1 + int(dd)%4 // 1..4
		d := data.GeneratePaper(n, 1)
		g, err := bandwidth.DefaultGrid(d.X, k)
		if err != nil {
			t.Skip()
		}
		ctx := context.Background()
		hm, err := gpu.NewSimManager(devices, gpu.TeslaS10())
		if err != nil {
			t.Fatal(err)
		}
		want, err := SelectGPUFleetContext(ctx, d.X, d.Y, g, hm, GPUOptions{KeepScores: true})
		if err != nil {
			t.Fatalf("healthy fleet run failed: %v", err)
		}

		m, err := gpu.NewSimManager(devices, gpu.TeslaS10())
		if err != nil {
			t.Fatal(err)
		}
		target := int(fdev) % devices
		switch fkind % 3 {
		case 0:
			err = m.InjectXID(target, 79, 1+int64(fstep))
		case 1:
			err = m.InjectFallOffBus(target)
		case 2:
			err = m.InjectMemPressure(target, int64(fstep)*4096)
		}
		if err != nil {
			t.Fatalf("injection: %v", err)
		}
		got, err := SelectGPUFleetContext(ctx, d.X, d.Y, g, m, GPUOptions{KeepScores: true})
		if err != nil {
			if !gpu.IsDeviceFault(err) && !errors.Is(err, ErrNoHealthyDevices) {
				t.Fatalf("untyped error from faulted fleet: %v", err)
			}
			if got.H != 0 || got.CV != 0 || got.Scores != nil {
				t.Fatalf("error run leaked a partial result: %+v", got)
			}
			return
		}
		if got.Index != want.Index || got.H != want.H || got.CV != want.CV {
			t.Fatalf("faulted result differs from healthy: %+v vs %+v", got.Result, want.Result)
		}
		for j := range want.Scores {
			if got.Scores[j] != want.Scores[j] {
				t.Fatalf("score[%d] differs bitwise: %v vs %v", j, got.Scores[j], want.Scores[j])
			}
		}
		// Cross-check against the independent tiled float32 pipeline: the
		// two device paths reduce in different orders, so the comparison
		// is at class tolerance rather than bitwise.
		chunk := 64
		if chunk > n {
			chunk = n
		}
		tiled, _, _, err := SelectGPUTiledContext(ctx, d.X, d.Y, g, TiledOptions{ChunkSize: chunk})
		if err != nil {
			t.Fatalf("tiled reference: %v", err)
		}
		if mathx.RelDiff(got.CV, tiled.CV) > 1e-3 {
			t.Fatalf("fleet CV %v vs tiled CV %v", got.CV, tiled.CV)
		}
	})
}
