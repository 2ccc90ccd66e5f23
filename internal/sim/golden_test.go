package sim

import (
	"hash/fnv"
	"testing"
	"time"
)

// goldenSchedule runs a fixed mix of concurrent transfers over shared
// resources and reports each transfer's completion time, the dispatched
// event trace and the final virtual time.
func goldenSchedule() (done map[string]time.Duration, trace []string, end time.Duration) {
	e := NewEngine()
	e.SetTracing(true)
	done = make(map[string]time.Duration)
	e.Go("root", func(env Env) {
		pcie := NewBandwidthResource(env, "pcie", 12e9)
		nic := NewBandwidthResource(env, "nic", 10e9)
		nic.SetContention(0.2)
		host := NewBandwidthResource(env, "host", 20e9)
		pmem := NewBandwidthResource(env, "pmem", 8e9)
		pmem.SetContention(0.05)
		stages := []Stage{
			{Res: pcie, FlowCap: 5.8e9, Latency: 2 * time.Microsecond},
			{Res: nic, Latency: time.Microsecond},
			{Res: host},
			{Res: pmem, FlowCap: 3e9, Latency: 300 * time.Nanosecond},
		}
		for i, tc := range []struct {
			name        string
			delay       time.Duration
			size, chunk int64
		}{
			{"p0", 0, 64 << 20, 4 << 20},
			{"p1", 0, 37<<20 + 12345, 4 << 20},
			{"p2", 3 * time.Millisecond, 9 << 20, 1 << 20},
			{"p3", 5*time.Millisecond + 7, 128 << 20, 16 << 20},
		} {
			tc := tc
			st := stages
			if i == 2 {
				// A slower per-flow NIC cap for one tenant.
				st = append([]Stage(nil), stages...)
				st[1].FlowCap = 2.5e9
			}
			env.Go(tc.name, func(env Env) {
				env.Sleep(tc.delay)
				PipelineTransfer(env, tc.size, tc.chunk, st...)
				done[tc.name] = env.Now()
			})
		}
		env.Go("solo", func(env Env) {
			env.Sleep(time.Millisecond)
			nic.Transfer(env, 24<<20, 4e9, 5*time.Microsecond)
			done["solo"] = env.Now()
		})
		env.Go("single", func(env Env) {
			env.Sleep(2 * time.Millisecond)
			PipelineTransfer(env, 10<<20, 3<<20, Stage{Res: host, FlowCap: 6e9, Latency: 4 * time.Microsecond})
			done["single"] = env.Now()
		})
	})
	end = e.Run()
	return done, e.Trace(), end
}

// TestGoldenSchedule pins the exact virtual-time schedule of concurrent
// multi-stage pipelines, a plain Transfer and a single-stage pipeline over
// shared, contended resources. Any change to the engine, the bandwidth
// model or the pipeline must leave every number here unchanged: the
// paper's figures are computed from exactly this machinery.
func TestGoldenSchedule(t *testing.T) {
	done, trace, end := goldenSchedule()
	want := map[string]time.Duration{
		"p0":     32993620,
		"p1":     23558747,
		"p2":     9815154,
		"p3":     65276692,
		"solo":   16015370,
		"single": 3751627,
	}
	for name, at := range want {
		if got, ok := done[name]; !ok || got != at {
			t.Errorf("%s finished at %d ns, want %d ns", name, int64(got), int64(at))
		}
	}
	if len(done) != len(want) {
		t.Errorf("%d transfers finished, want %d", len(done), len(want))
	}
	const wantEvents, wantEnd = 674, 65276692 * time.Nanosecond
	if len(trace) != wantEvents {
		t.Errorf("dispatched %d events, want %d", len(trace), wantEvents)
	}
	if end != wantEnd {
		t.Errorf("final Now() = %d ns, want %d ns", int64(end), int64(wantEnd))
	}
	h := fnv.New64a()
	for _, s := range trace {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	if got, want := h.Sum64(), uint64(0x6d757cfe9a54d28); got != want {
		t.Errorf("trace hash = %#x, want %#x", got, want)
	}
}
