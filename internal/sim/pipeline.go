package sim

import "time"

// Stage describes one hop of a multi-stage datapath: a shared resource
// plus the per-flow rate cap and latency this transfer experiences on it.
type Stage struct {
	Res     *BandwidthResource
	FlowCap float64 // bytes/sec; 0 = uncapped
	Latency time.Duration
}

// PipelineTransfer moves size bytes through a sequence of stages in a
// store-and-forward pipeline: the transfer is split into chunks and chunk
// i occupies stage k while chunk i+1 occupies stage k−1, so sustained
// throughput converges to the minimum stage rate while contention on each
// stage is modeled independently. Every chunk pays each stage's latency,
// except on a single stage, where verbs are posted back-to-back and the
// latency is charged once. It blocks the calling process until the last
// chunk clears the last stage. Under a real (wall-clock) environment it
// returns immediately: modeled costs do not apply there.
//
// The stages run as callbacks in engine context and the caller parks
// once. Each callback event is scheduled where a stage process passing
// chunks to the next through a mailbox would be woken, under the same
// label, so the schedule (order, event count and trace) equals that of
// running every stage as its own process.
func PipelineTransfer(env Env, size, chunk int64, stages ...Stage) {
	if !env.IsSim() || size <= 0 || len(stages) == 0 {
		return
	}
	if chunk <= 0 || chunk > size {
		chunk = size
	}
	se := env.(*simEnv)
	pp := se.eng.newPipe(se.p, size, chunk, stages)
	if len(stages) == 1 {
		// The caller issues the first chunk itself.
		pp.stages[0].step()
	} else {
		// Every stage but the last starts like a spawned process; the
		// last is the caller's, waiting for its first chunk.
		for _, s := range pp.stages[:len(stages)-1] {
			se.eng.schedule(se.eng.now, nil, s.stepFn, "start", pipeStageName)
		}
		pp.stages[len(stages)-1].waiting = true
	}
	se.parkOnCondition()
}

// pipeStageName labels the events of every stage but the last, which
// moves chunks on behalf of the calling process and carries its name.
const pipeStageName = "pipe-stage"

// pipe is the state of one PipelineTransfer. Finished pipes are kept on
// the engine for reuse.
type pipe struct {
	eng               *Engine
	caller            *proc
	size, chunk, sent int64 // sent: bytes the first stage has taken
	once              bool  // single stage: charge the latency once
	stages            []*pipeStage
}

// pipeStage is one stage's state machine. Its queue and closed flag play
// the part of the mailbox from the previous stage.
type pipeStage struct {
	Stage
	pp      *pipe
	next    *pipeStage // nil for the last stage
	first   bool       // takes its chunks from the transfer itself
	name    string
	queue   []int64 // chunk sizes the previous stage has delivered
	head    int
	closed  bool  // the previous stage has delivered its last chunk
	waiting bool  // idle on an empty queue until a delivery or close
	cur     int64 // the chunk this stage is moving

	// Callbacks, bound once.
	stepFn, flowFn, doneFn func()
}

func (e *Engine) newPipe(caller *proc, size, chunk int64, stages []Stage) *pipe {
	var pp *pipe
	if n := len(e.pipes); n > 0 {
		pp = e.pipes[n-1]
		e.pipes = e.pipes[:n-1]
	} else {
		pp = &pipe{eng: e}
	}
	pp.caller, pp.size, pp.chunk, pp.sent = caller, size, chunk, 0
	pp.once = len(stages) == 1
	for len(pp.stages) < len(stages) {
		s := &pipeStage{pp: pp}
		s.stepFn, s.flowFn, s.doneFn = s.step, s.flow, s.done
		pp.stages = append(pp.stages, s)
	}
	for k, st := range stages {
		s := pp.stages[k]
		s.Stage, s.first, s.name = st, k == 0, pipeStageName
		s.queue, s.head, s.closed, s.waiting, s.cur = s.queue[:0], 0, false, false, 0
		s.next = nil
		if k+1 < len(stages) {
			s.next = pp.stages[k+1]
		} else {
			s.name = caller.name
		}
	}
	return pp
}

// step takes the stage's next chunk and moves it, finishes the stage
// when its input is exhausted, or idles until the previous stage
// delivers.
func (s *pipeStage) step() {
	pp := s.pp
	if s.first {
		if pp.sent >= pp.size {
			s.finish()
			return
		}
		s.cur = min64(pp.chunk, pp.size-pp.sent)
		pp.sent += s.cur
	} else {
		if s.head == len(s.queue) {
			if s.closed {
				s.finish()
			} else {
				s.waiting = true
			}
			return
		}
		s.cur = s.queue[s.head]
		if s.head++; s.head == len(s.queue) {
			s.queue, s.head = s.queue[:0], 0
		}
	}
	lat := s.Latency
	if pp.once {
		s.Latency = 0
	}
	if lat > 0 {
		pp.eng.schedule(pp.eng.now+lat, nil, s.flowFn, "wake", s.name)
		return
	}
	s.flow()
}

// flow starts the current chunk on the stage's resource.
func (s *pipeStage) flow() { s.Res.start(s.cur, s.FlowCap, nil, s.doneFn) }

// done runs when the current chunk clears the resource: it hands the
// chunk to the next stage and moves on.
func (s *pipeStage) done() {
	if nx := s.next; nx != nil {
		nx.queue = append(nx.queue, s.cur)
		nx.wake("mbox")
	}
	s.step()
}

// finish closes the next stage's input or, on the last stage, resumes
// the caller from inside the current event.
func (s *pipeStage) finish() {
	if nx := s.next; nx != nil {
		nx.closed = true
		nx.wake("mboxclose")
		return
	}
	pp := s.pp
	e, caller := pp.eng, pp.caller
	pp.caller = nil
	e.pipes = append(e.pipes, pp)
	e.npark--
	e.dispatch(caller)
}

// wake resumes a stage idling on its empty queue.
func (s *pipeStage) wake(kind string) {
	if s.waiting {
		s.waiting = false
		s.pp.eng.schedule(s.pp.eng.now, nil, s.stepFn, kind, s.name)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
