package sim

import (
	"testing"
	"time"
)

func TestPipelineThroughputIsMinStage(t *testing.T) {
	// 16 GiB through a 16 GiB/s stage then a 4 GiB/s stage with 1 GiB
	// chunks: one chunk of fill through stage a (1/16 s), then stage b
	// runs back-to-back for 16 chunks at 1/4 s each ⇒ 4.0625 s.
	e := NewEngine()
	var done time.Duration
	e.Go("x", func(env Env) {
		a := NewBandwidthResource(env, "a", 16*gb)
		b := NewBandwidthResource(env, "b", 4*gb)
		PipelineTransfer(env, 16*gb, gb, Stage{Res: a}, Stage{Res: b})
		done = env.Now()
	})
	e.Run()
	want := 4062500 * time.Microsecond
	if !approxEqual(done, want) {
		t.Fatalf("pipeline took %v, want ~%v", done, want)
	}
}

func TestPipelineSlowFirstStage(t *testing.T) {
	// Bottleneck in stage 1: 8 GiB at 2 GiB/s then 16 GiB/s ⇒ ~4s + tail.
	e := NewEngine()
	var done time.Duration
	e.Go("x", func(env Env) {
		a := NewBandwidthResource(env, "a", 2*gb)
		b := NewBandwidthResource(env, "b", 16*gb)
		PipelineTransfer(env, 8*gb, gb, Stage{Res: a}, Stage{Res: b})
		done = env.Now()
	})
	e.Run()
	want := 4*time.Second + 62500*time.Microsecond // 4s + 1GiB/16GiBps tail
	if !approxEqual(done, want) {
		t.Fatalf("pipeline took %v, want ~%v", done, want)
	}
}

func TestPipelineSingleStageEqualsTransfer(t *testing.T) {
	e := NewEngine()
	var done time.Duration
	e.Go("x", func(env Env) {
		a := NewBandwidthResource(env, "a", 4*gb)
		PipelineTransfer(env, 8*gb, gb, Stage{Res: a, Latency: time.Millisecond})
		done = env.Now()
	})
	e.Run()
	if !approxEqual(done, 2*time.Second+time.Millisecond) {
		t.Fatalf("single-stage pipeline took %v, want ~2.001s", done)
	}
}

func TestPipelineFlowCapApplies(t *testing.T) {
	e := NewEngine()
	var done time.Duration
	e.Go("x", func(env Env) {
		a := NewBandwidthResource(env, "a", 16*gb)
		PipelineTransfer(env, 8*gb, 0, Stage{Res: a, FlowCap: 2 * gb})
		done = env.Now()
	})
	e.Run()
	if !approxEqual(done, 4*time.Second) {
		t.Fatalf("capped pipeline took %v, want ~4s", done)
	}
}

func TestPipelineContentionDegradesAggregate(t *testing.T) {
	// α=1: two flows see capacity/2 total, i.e. 1/4 rate each ⇒ 4× slower
	// than a lone flow.
	e := NewEngine()
	var solo, duo time.Duration
	e.Go("solo", func(env Env) {
		r := NewBandwidthResource(env, "svc", 4*gb)
		r.SetContention(1.0)
		r.Transfer(env, 4*gb, 0, 0)
		solo = env.Now()
	})
	e.Run()
	e2 := NewEngine()
	e2.Go("root", func(env Env) {
		r := NewBandwidthResource(env, "svc", 4*gb)
		r.SetContention(1.0)
		for i := 0; i < 2; i++ {
			env.Go("f", func(env Env) {
				r.Transfer(env, 4*gb, 0, 0)
				if env.Now() > duo {
					duo = env.Now()
				}
			})
		}
	})
	e2.Run()
	if !approxEqual(solo, time.Second) {
		t.Fatalf("solo flow took %v, want ~1s", solo)
	}
	if !approxEqual(duo, 4*time.Second) {
		t.Fatalf("contended flows took %v, want ~4s", duo)
	}
}

func TestPipelineRealEnvReturnsImmediately(t *testing.T) {
	env := NewRealEnv()
	a := NewBandwidthResource(env, "a", gb)
	start := time.Now()
	PipelineTransfer(env, 100*gb, gb, Stage{Res: a})
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("PipelineTransfer under RealEnv should be immediate")
	}
}

// fourStages returns a four-stage datapath with per-chunk latencies and a
// capped first stage, the shape of a simulated RDMA verb.
func fourStages(env Env) []Stage {
	return []Stage{
		{Res: NewBandwidthResource(env, "src", 12*gb), FlowCap: 6 * gb, Latency: time.Microsecond},
		{Res: NewBandwidthResource(env, "nic0", 10*gb)},
		{Res: NewBandwidthResource(env, "nic1", 10*gb)},
		{Res: NewBandwidthResource(env, "dst", 8*gb)},
	}
}

func TestPipelineTransferParksOnlyTheCaller(t *testing.T) {
	e := NewEngine()
	parked, live := -1, -1
	var done time.Duration
	e.Go("root", func(env Env) {
		st := fourStages(env)
		env.Go("mover", func(env Env) {
			PipelineTransfer(env, 64<<20, 1<<20, st...)
			done = env.Now()
		})
		env.Go("probe", func(env Env) {
			env.Sleep(time.Millisecond)
			parked, live = e.Parked(), e.Live()
		})
	})
	e.Run()
	if done <= time.Millisecond {
		t.Fatalf("transfer finished at %v, before the probe looked", done)
	}
	if parked != 1 || live != 2 {
		t.Fatalf("mid-transfer Parked() = %d, Live() = %d; want 1 (the caller) and 2 (caller and probe)", parked, live)
	}
	if e.Parked() != 0 || e.Live() != 0 {
		t.Fatalf("after the run Parked() = %d, Live() = %d; want 0 and 0", e.Parked(), e.Live())
	}
}

// TestPipelineTransferAllocations holds one multi-chunk transfer, on an
// engine that has run one before, to a small budget: the process that
// issues it, and nothing per chunk, per stage or per event.
func TestPipelineTransferAllocations(t *testing.T) {
	const budget = 8
	for _, chunks := range []int64{4, 64} {
		e := NewEngine()
		var st []Stage
		e.Go("setup", func(env Env) { st = fourStages(env) })
		e.Run()
		allocs := testing.AllocsPerRun(20, func() {
			e.Go("verb", func(env Env) { PipelineTransfer(env, chunks<<20, 1<<20, st...) })
			e.Run()
		})
		if allocs > budget {
			t.Errorf("%d-chunk transfer: %.1f allocations, want at most %d", chunks, allocs, budget)
		}
	}
}
