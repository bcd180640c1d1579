package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/ino"
	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/ooo"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// measureIters is the iteration count of every measurement, the count the
// cluster layer uses.
const measureIters = 10

// loop is one loop trace of the suite.
type loop struct {
	bench string
	t     *trace.Trace
	deps  *trace.DepGraph
}

// suiteLoops lists every loop trace of the 26-benchmark suite in an order
// shuffled by the seed. The cores carry cache and TLB state from one trace to
// the next, so the order is part of the input.
func suiteLoops(seed uint64) []loop {
	var loops []loop
	for _, b := range program.Suite() {
		for _, ph := range b.Phases {
			for _, l := range ph.Loops {
				loops = append(loops, loop{bench: b.Name, t: l.Trace, deps: l.Deps})
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x6d656173))
	rng.Shuffle(len(loops), func(i, j int) { loops[i], loops[j] = loops[j], loops[i] })
	return loops
}

// measureTimes holds one pass's time per kind of call.
type measureTimes struct {
	oooTrace, inoTrace, inoReplay time.Duration
}

// callResult is one measurement call's output; violations counts the
// invariant-audit violations the call raised.
type callResult struct {
	cpi, ipc, squash float64
	violations       int
}

// measurePass measures every loop once on fresh cores: OoO MeasureTrace, InO
// MeasureTrace, and OinO MeasureReplay of the OoO's schedule, three calls per
// loop, whose results it returns in call order.
func measurePass(seed uint64, loops []loop, aud *invariant.Auditor, tr *tracer, op int64) ([]callResult, measureTimes) {
	root := xrand.New(seed)
	oc := ooo.New(mem.NewHierarchy(), root.Fork("ooo"))
	ic := ino.New(mem.NewHierarchy(), root.Fork("ino"))
	if aud != nil {
		oc.AttachAudit(aud, "perfbench.ooo")
		ic.AttachAudit(aud, "perfbench.ino")
	}
	out := make([]callResult, 0, 3*len(loops))
	var times measureTimes
	for i, l := range loops {
		walkers := func(core string) []*mem.Walker {
			ws := make([]*mem.Walker, len(l.t.Streams))
			for k, s := range l.t.Streams {
				ws[k] = mem.NewWalker(s, root.Fork(fmt.Sprintf("%s-%d-%d", core, i, k)))
			}
			return ws
		}
		wo, wi := walkers("ooo"), walkers("ino")
		seen := aud.Total()
		violations := func() int {
			n := aud.Total() - seen
			seen += n
			return n
		}

		sp := tr.begin("ooo.MeasureTrace", "ooo", op, op, 0)
		ro := oc.MeasureTrace(l.t, l.deps, wo, measureIters)
		times.oooTrace += sp.end()
		out = append(out, callResult{cpi: ro.CyclesPerIter, ipc: ro.IPC, violations: violations()})

		sp = tr.begin("ino.MeasureTrace", "ino", op, op, 0)
		ri := ic.MeasureTrace(l.t, l.deps, wi, measureIters)
		times.inoTrace += sp.end()
		out = append(out, callResult{cpi: ri.CyclesPerIter, ipc: ri.IPC, violations: violations()})

		sp = tr.begin("ino.MeasureReplay", "ino", op, op, 0)
		rr := ic.MeasureReplay(l.t, l.deps, ro.Schedule, wi, measureIters)
		times.inoReplay += sp.end()
		out = append(out, callResult{cpi: rr.CyclesPerIter, ipc: rr.IPC, squash: rr.SquashRate, violations: violations()})
	}
	return out, times
}

var callKinds = [3]string{"ooo.MeasureTrace", "ino.MeasureTrace", "ino.MeasureReplay"}

// checkCalls accounts every call of a pass: its rate must be finite and
// positive, it must raise no audit violation, and it must equal the same
// call of the reference pass (the same seed must give the same results).
func checkCalls(r *report, loops []loop, ref, got []callResult) {
	for i, c := range got {
		l := loops[i/3]
		var err error
		switch {
		case !(c.cpi > 0 && c.ipc > 0) || math.IsInf(c.cpi, 0) || math.IsInf(c.ipc, 0):
			err = wrongf("%s trace %d (%s): cycles/iter %v, IPC %v", callKinds[i%3], l.t.ID, l.bench, c.cpi, c.ipc)
		case c.violations > 0:
			err = wrongf("%s trace %d (%s): %d invariant violations", callKinds[i%3], l.t.ID, l.bench, c.violations)
		case ref != nil && (c.cpi != ref[i].cpi || c.ipc != ref[i].ipc || c.squash != ref[i].squash):
			err = wrongf("%s trace %d (%s): %v differs from the first pass's %v", callKinds[i%3], l.t.ID, l.bench, c, ref[i])
		}
		r.check(err)
	}
}

// callsDigest hashes a pass's results.
func callsDigest(calls []callResult) string {
	var vs []float64
	for _, c := range calls {
		vs = append(vs, c.cpi, c.ipc, c.squash)
	}
	return hashFloats(vs)
}

// engineRuns is the time and work of one pass of direct engine runs.
type engineRuns struct {
	dataflow, inorder, replay    time.Duration
	dataflowN, inorderN, replayN int64 // instructions issued
	maxLive                      time.Duration
	maxLiveCalls                 int
}

// engineIters is the iteration count of a direct engine run: a multiple of
// ooo.ScheduleSpan, so the replay covers whole recorded blocks.
const engineIters = 8

// engineInput is one loop with the load latencies its engine runs see.
type engineInput struct {
	l       loop
	latency func(loadSeq int) int
}

// engineInputs gives each dynamic load of each loop a latency from the
// memory hierarchy's own levels, drawn from the seed: mostly L1 hits, some
// L2 hits, a few DRAM accesses.
func engineInputs(seed uint64, loops []loop) []engineInput {
	levels := []int{mem.L1Latency, mem.L1Latency, mem.L1Latency, mem.L1Latency, mem.L1Latency,
		mem.L1Latency + mem.L2Latency, mem.L1Latency + mem.L2Latency, mem.L1Latency + mem.L2Latency + mem.MemLatency}
	rng := rand.New(rand.NewPCG(seed, 0x656e67))
	ins := make([]engineInput, len(loops))
	for i, l := range loops {
		ins[i].l = l
		loads, _ := l.t.NumMemOps()
		if loads == 0 {
			continue
		}
		lats := make([]int, loads*engineIters)
		for k := range lats {
			lats[k] = levels[rng.IntN(len(levels))]
		}
		ins[i].latency = func(k int) int { return lats[k%len(lats)] }
	}
	return ins
}

func engineRequest(in engineInput, pol pipeline.Policy, order []uint16) pipeline.Request {
	req := pipeline.Request{
		Trace: in.l.t, Deps: in.l.deps, Iterations: engineIters, Policy: pol,
		Width: isa.IssueWidth, MispredictPenalty: isa.InOPipelineDepth, LoadLatency: in.latency,
	}
	switch pol {
	case pipeline.Dataflow:
		req.Window = isa.ROBSize
		req.ProbeSpan = ooo.ScheduleSpan
		req.MispredictPenalty = isa.OoOPipelineDepth
	case pipeline.RecordedOrder:
		req.Order = order
		req.ProbeSpan = len(order) / len(in.l.t.Insts)
	}
	return req
}

// enginePass calls pipeline.Engine.Run directly for every loop under the
// three issue policies (the replay follows the dataflow run's recorded
// order) and checks the issue bounds any correct engine meets: a run issues
// at least iterations x trace length instructions, in at least that many
// divided by the issue width cycles. It returns the recorded orders too.
func enginePass(ins []engineInput, r *report, tr *tracer, op int64) (engineRuns, [][]uint16) {
	eng := pipeline.NewEngine()
	var out engineRuns
	orders := make([][]uint16, len(ins))
	run := func(name string, in engineInput, req pipeline.Request, d *time.Duration, n *int64) pipeline.Result {
		sp := tr.begin("pipeline.Engine.Run "+name, "pipeline", op, op, 1)
		res := eng.Run(req)
		*d += sp.end()
		*n += int64(res.Issued)
		want := engineIters * len(in.l.t.Insts)
		var err error
		if res.Issued < want || res.Cycles*isa.IssueWidth < want {
			err = wrongf("%s engine run on trace %d: issued %d in %d cycles, want >= %d in >= %d/%d",
				name, in.l.t.ID, res.Issued, res.Cycles, want, want, isa.IssueWidth)
		}
		r.check(err)
		return res
	}
	for i, in := range ins {
		df := run("dataflow", in, engineRequest(in, pipeline.Dataflow, nil), &out.dataflow, &out.dataflowN)
		orders[i] = append([]uint16(nil), df.IssueOrder...)

		sp := tr.begin("pipeline.MaxLiveVersions", "pipeline", op, op, 1)
		pipeline.MaxLiveVersions(in.l.t, orders[i])
		out.maxLive += sp.end()
		out.maxLiveCalls++

		run("inorder", in, engineRequest(in, pipeline.ProgramOrder, nil), &out.inorder, &out.inorderN)
		run("replay", in, engineRequest(in, pipeline.RecordedOrder, orders[i]), &out.replay, &out.replayN)
	}
	return out, orders
}

func runMeasure(cfg runConfig, r *report) error {
	r.set("setup_s", timeSuiteSetup(nil).Seconds(), "s")
	loops := suiteLoops(cfg.seed)

	// Untimed checks: the invariant audit recomputes issue, latency,
	// dependence-order, width and FU constraints on every measurement of
	// the first pass, and the direct engine runs must respect the issue
	// bounds. The audited pass is the reference every timed pass must equal.
	ref, _ := measurePass(cfg.seed, loops, invariant.New(telemetry.NewRegistry()), nil, 0)
	checkCalls(r, loops, nil, ref)
	enginePass(engineInputs(cfg.seed, loops), r, nil, 0)
	r.digests = append(r.digests, "measure "+callsDigest(ref))

	var passes []time.Duration
	calls := 0
	deadline := time.Now().Add(cfg.seconds)
	for len(passes) < 3 || time.Now().Before(deadline) {
		start := time.Now()
		got, _ := measurePass(cfg.seed, loops, nil, nil, 0)
		passes = append(passes, time.Since(start))
		calls += len(got)
		checkCalls(r, loops, ref, got)
	}
	var total time.Duration
	for _, d := range passes {
		total += d
	}
	r.set("op_p50_ms", ms(median(passes)), "ms")
	r.set("ops_per_s", float64(calls)/total.Seconds(), "1/s")
	r.note("measures_per_s", float64(calls)/total.Seconds(), "1/s")
	r.note("measure_calls_per_pass", float64(3*len(loops)), "count")
	return nil
}
