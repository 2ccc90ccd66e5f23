package sim

import (
	"testing"
	"time"
)

// BenchmarkEventDispatch measures raw engine throughput: how many
// schedule/park/wake cycles per second the simulator sustains.
func BenchmarkEventDispatch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		e.Go("p", func(env Env) {
			for j := 0; j < 1000; j++ {
				env.Sleep(time.Microsecond)
			}
		})
		e.Run()
	}
}

// BenchmarkBandwidthContention measures the processor-sharing resource
// under churn: 64 flows arriving and departing.
func BenchmarkBandwidthContention(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		e.Go("root", func(env Env) {
			r := NewBandwidthResource(env, "nic", 1e10)
			for f := 0; f < 64; f++ {
				f := f
				env.Go("flow", func(env Env) {
					env.Sleep(time.Duration(f) * time.Millisecond)
					r.Transfer(env, 1<<24, 0, 0)
				})
			}
		})
		e.Run()
	}
}

// BenchmarkMailboxThroughput measures message passing between two
// processes.
func BenchmarkMailboxThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		e.Go("root", func(env Env) {
			mb := NewMailbox[int](env)
			env.Go("producer", func(env Env) {
				for j := 0; j < 1000; j++ {
					mb.Send(env, j)
				}
				mb.Close(env)
			})
			env.Go("consumer", func(env Env) {
				for {
					if _, ok := mb.Recv(env); !ok {
						return
					}
				}
			})
		})
		e.Run()
	}
}

// BenchmarkPipelineTransfer measures one 64-chunk transfer through four
// stages, the shape of a simulated RDMA verb, on a reused engine.
func BenchmarkPipelineTransfer(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	var st []Stage
	e.Go("setup", func(env Env) { st = fourStages(env) })
	e.Run()
	for i := 0; i < b.N; i++ {
		e.Go("verb", func(env Env) { PipelineTransfer(env, 64<<20, 1<<20, st...) })
		e.Run()
	}
}
