package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// runLayers is the traced run. It makes one traced pass through every layer
// with the workload's seed (the contract of a traced run is every per-layer
// metric, whichever workload names it), records a span around each call it
// makes into a layer, and derives the per-layer metrics from the same
// measurements. The spans are written as a Chrome trace, and the fleet's
// /v1/metrics snapshots beside it.
func runLayers(cfg runConfig, r *report) error {
	tr := newTracer()
	r.set("program.suite_ms", ms(timeSuiteSetup(tr)), "ms")
	loops := suiteLoops(cfg.seed)
	sp := tr.begin("trace.BuildDepGraph (every loop)", "trace", 0, tr.newOp(), 0)
	for _, l := range loops {
		trace.BuildDepGraph(l.t)
	}
	r.set("trace.dep_graph_us", us(sp.end())/float64(len(loops)), "us")

	measureLayers(cfg, loops, r, tr)
	pipelineLayers(cfg, loops, r, tr)
	memLayers(cfg, loops, r, tr)
	if err := sweepLayers(cfg, r, tr); err != nil {
		return err
	}
	snaps, err := fleetLayers(cfg, r, tr)
	if err != nil {
		return err
	}
	if err := tr.write(outPath(cfg, "trace")); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(snaps, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath(cfg, "metrics"), buf, 0o644); err != nil {
		return err
	}
	fmt.Println("trace", outPath(cfg, "trace"), "spans", tr.sink.Len())
	fmt.Println("snapshots", outPath(cfg, "metrics"))
	return nil
}

// tracingReps is how many traced and untraced repetitions alternate when
// the traced run measures its own overhead.
const tracingReps = 3

// measureLayers times OoO/InO measurement per call from spans, and the
// tracing overhead as the traced passes' median over the untraced ones'.
func measureLayers(cfg runConfig, loops []loop, r *report, tr *tracer) {
	ref, _ := measurePass(cfg.seed, loops, invariant.New(telemetry.NewRegistry()), nil, 0)
	checkCalls(r, loops, nil, ref)
	var plain, traced []time.Duration
	var sum measureTimes
	for i := 0; i < tracingReps; i++ {
		start := time.Now()
		got, _ := measurePass(cfg.seed, loops, nil, nil, 0)
		plain = append(plain, time.Since(start))
		checkCalls(r, loops, ref, got)

		op := tr.newOp()
		sp := tr.begin("measure pass", "measure", 0, op, 0)
		got, t := measurePass(cfg.seed, loops, nil, tr, op)
		traced = append(traced, sp.end())
		checkCalls(r, loops, ref, got)
		sum.oooTrace += t.oooTrace
		sum.inoTrace += t.inoTrace
		sum.inoReplay += t.inoReplay
	}
	calls := float64(tracingReps * len(loops))
	r.set("ooo.measure_trace_us", us(sum.oooTrace)/calls, "us")
	r.set("ino.measure_trace_us", us(sum.inoTrace)/calls, "us")
	r.set("ino.measure_replay_us", us(sum.inoReplay)/calls, "us")
	r.set("tracing.measure_overhead_pct", 100*(float64(median(traced))/float64(median(plain))-1), "%")
}

// pipelineLayers times direct engine runs per issued instruction, the
// engine's allocations per run, and MaxLiveVersions per call.
func pipelineLayers(cfg runConfig, loops []loop, r *report, tr *tracer) {
	ins := engineInputs(cfg.seed, loops)
	var df, io, rp, ml []float64
	var orders [][]uint16
	for i := 0; i < tracingReps; i++ {
		op := tr.newOp()
		sp := tr.begin("engine pass", "pipeline", 0, op, 1)
		var e engineRuns
		e, orders = enginePass(ins, r, tr, op)
		sp.end()
		df = append(df, float64(e.dataflow.Nanoseconds())/float64(e.dataflowN))
		io = append(io, float64(e.inorder.Nanoseconds())/float64(e.inorderN))
		rp = append(rp, float64(e.replay.Nanoseconds())/float64(e.replayN))
		ml = append(ml, us(e.maxLive)/float64(e.maxLiveCalls))
	}
	r.set("pipeline.dataflow_ns_per_inst", median(df), "ns")
	r.set("pipeline.inorder_ns_per_inst", median(io), "ns")
	r.set("pipeline.replay_ns_per_inst", median(rp), "ns")
	r.set("pipeline.max_live_versions_us", median(ml), "us")

	// Allocations: the engine runs alone, on requests built beforehand.
	eng := pipeline.NewEngine()
	reqs := make([]pipeline.Request, 0, 3*len(ins))
	for i, in := range ins {
		reqs = append(reqs, engineRequest(in, pipeline.Dataflow, nil),
			engineRequest(in, pipeline.ProgramOrder, nil),
			engineRequest(in, pipeline.RecordedOrder, orders[i]))
	}
	for _, req := range reqs {
		eng.Run(req) // size the engine's scratch first
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, req := range reqs {
		eng.Run(req)
	}
	runtime.ReadMemStats(&after)
	r.set("pipeline.allocs_per_run", float64(after.Mallocs-before.Mallocs)/float64(len(reqs)), "count")
}

// memLayers times the data-load path of the memory hierarchy and the TLB
// per access, over the addresses every loop's streams produce in a
// measurement, on one hierarchy and one TLB warmed as the pass goes.
func memLayers(cfg runConfig, loops []loop, r *report, tr *tracer) {
	type access struct {
		stream uint8
		addr   uint64
	}
	root := xrand.New(cfg.seed)
	var accs []access
	for i, l := range loops {
		ws := make([]*mem.Walker, len(l.t.Streams))
		for k, s := range l.t.Streams {
			ws[k] = mem.NewWalker(s, root.Fork(fmt.Sprintf("mem-%d-%d", i, k)))
		}
		for it := 0; it < measureIters; it++ {
			for _, in := range l.t.Insts {
				if in.Op == isa.Load && int(in.MemStream) < len(ws) {
					accs = append(accs, access{in.MemStream, ws[in.MemStream].Next()})
				}
			}
		}
	}
	var loads, tlbs []float64
	for i := 0; i < tracingReps; i++ {
		h := mem.NewHierarchy()
		sp := tr.begin("mem.Hierarchy.LoadLatency (every load)", "mem", 0, tr.newOp(), 1)
		for _, a := range accs {
			h.LoadLatency(a.stream, a.addr)
		}
		loads = append(loads, float64(sp.end().Nanoseconds())/float64(len(accs)))

		tlb := mem.NewTLB()
		sp = tr.begin("mem.TLB.Access (every load)", "mem", 0, tr.newOp(), 1)
		for _, a := range accs {
			tlb.Access(a.addr)
		}
		tlbs = append(tlbs, float64(sp.end().Nanoseconds())/float64(len(accs)))
	}
	r.set("mem.load_latency_ns", median(loads), "ns")
	r.set("mem.tlb_access_ns", median(tlbs), "ns")
}

// sweepLayers splits a sweep pass into its simulations: direct passes that
// time every core.RunMix alternate with plain passes, and the plain passes'
// median wall time minus the direct passes' median RunMix total is the
// experiment and runner layers' own cost; then a pass with a telemetry
// registry for the cluster's own counters.
func sweepLayers(cfg runConfig, r *report, tr *tracer) error {
	sc := sweepScale(cfg.seed)
	var (
		jobs           []sweepJob
		cells          map[string][][]string
		digest         string
		directs, walls []time.Duration
		total          time.Duration
		intervals      int64
		migrations     int64
		runs           int64
	)
	byTopo := map[string][]time.Duration{}
	for i := 0; i < tracingReps; i++ {
		op := tr.newOp()
		sp := tr.begin("sweep: every core.RunMix", "core", 0, op, 0)
		js, err := directSweep(sc, tr, op)
		sp.end()
		if err != nil {
			return err
		}
		if i == 0 {
			jobs, digest = js, sweepDigest(js)
			cells, err = sweepCells(sc, js)
			r.check(err)
			r.digests = append(r.digests, "sweep "+digest)
		} else if d := sweepDigest(js); d != digest {
			r.check(wrongf("direct sweep %d: digest %s, first pass %s", i, d, digest))
		} else {
			r.check(nil)
		}
		var sum time.Duration
		for _, j := range js {
			for _, m := range j.runs() {
				name := strings.ToLower(m.cfg.Topology.String())
				byTopo[name] = append(byTopo[name], m.d)
				sum += m.d
			}
		}
		directs = append(directs, sum)
		total += sum

		sp = tr.begin("sweep pass", "experiments", 0, tr.newOp(), 0)
		got, err := sweepPass(sc)
		walls = append(walls, sp.end())
		if err == nil && cells != nil {
			err = matchCells(cells, got)
		}
		r.check(err)
	}
	for _, j := range jobs {
		for _, m := range j.runs() {
			intervals += int64(m.res.Cluster.Intervals)
			migrations += int64(m.res.Cluster.Migrations)
			runs++
		}
	}
	for _, t := range []string{"homo-ooo", "homo-ino", "mirage", "traditional"} {
		r.set("core.run_mix_ms."+t, ms(median(byTopo[t])), "ms")
	}
	r.set("cluster.us_per_interval", us(total)/float64(tracingReps*intervals), "us")
	r.set("cluster.intervals", float64(intervals), "count")
	r.set("cluster.migrations", float64(migrations), "count")
	r.set("runner.overhead_ms", ms(median(walls)-median(directs)), "ms")

	reg := telemetry.NewRegistry()
	counted := sc
	counted.Telemetry = &telemetry.Telemetry{Registry: reg}
	sp := tr.begin("sweep pass (telemetry registry)", "experiments", 0, tr.newOp(), 0)
	got, err := sweepPass(counted)
	sp.end()
	if err == nil && cells != nil {
		err = matchCells(cells, got)
	}
	r.check(err)
	var measures, cycles, scHits, scMisses int64
	for name, v := range reg.Snapshot().Counters {
		switch {
		case strings.HasSuffix(name, "o.measures"): // core%d.ooo / core%d.ino
			measures += v
		case strings.HasSuffix(name, "o.measured_cycles"):
			cycles += v
		case strings.HasPrefix(name, "core") && strings.HasSuffix(name, ".sc.hits"):
			scHits += v
		case strings.HasPrefix(name, "core") && strings.HasSuffix(name, ".sc.misses"):
			scMisses += v
		}
	}
	r.set("cluster.measures_per_run", float64(measures)/float64(runs), "count")
	r.set("cluster.measured_cycles_per_run", float64(cycles)/float64(runs), "count")
	if scHits+scMisses > 0 {
		r.set("schedcache.hit_ratio", float64(scHits)/float64(scHits+scMisses), "ratio")
	} else {
		r.set("schedcache.hit_ratio", 0, "ratio")
	}

	return nil
}

// Traced fleet counts: hot blocks alternate coordinator, owner and
// untraced-coordinator hits; the cold keys stay a small share of the
// coordinator's history, as in the fleet-cold workload.
const (
	layerHotBlocks   = 4
	layerHotPerBlock = 4 * hotRound
	layerColdKeys    = 40
)

// fleetLayers runs the fleet's phases in order (hot, cold, then disk after
// both workers restart), snapshotting /v1/metrics of the coordinator and
// each worker around every phase, then reopens each worker's store itself.
func fleetLayers(cfg runConfig, r *report, tr *tracer) (map[string]map[string]json.RawMessage, error) {
	s, in, first, _, err := bootAndWarm(cfg, hedgeMin, r, tr)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	sr := &syncReport{r: r}
	snaps := map[string]map[string]json.RawMessage{}
	counters := map[string]fleetCounters{}
	snap := func(phase string) error {
		sp := tr.begin("GET /v1/metrics (coordinator, workers) after "+phase, "fleet", 0, tr.newOp(), 0)
		c, err := s.counters()
		sp.end()
		counters[phase], snaps[phase] = c, c.raw
		return err
	}
	if err := snap("warm"); err != nil {
		return nil, err
	}

	var viaCoord, direct, untraced sample
	for b := 0; b < layerHotBlocks; b++ {
		s.hits(in, first, s.viaCoordinator, layerHotPerBlock, time.Time{}, &viaCoord, sr, tr, "hot POST /v1/run (coordinator)")
		s.hits(in, first, s.owner, layerHotPerBlock, time.Time{}, &direct, sr, tr, "hot POST /v1/run (owner)")
		s.hits(in, first, s.viaCoordinator, layerHotPerBlock, time.Time{}, &untraced, sr, nil, "")
	}
	hit, coordHit, untracedHit := median(direct.sorted()), median(viaCoord.sorted()), median(untraced.sorted())
	if hit == 0 || coordHit == 0 || untracedHit == 0 {
		return nil, errNoSamples
	}
	r.set("server.hit_us", us(hit), "us")
	r.set("fleet.hop_us", us(coordHit)-us(hit), "us")
	r.set("tracing.hit_overhead_pct", 100*(float64(coordHit)/float64(untracedHit)-1), "%")
	if err := snap("hot"); err != nil {
		return nil, err
	}

	var coldLat sample
	results, _ := s.cold(in, 0, layerColdKeys, &coldLat, sr, tr)
	if err := snap("cold"); err != nil {
		return nil, err
	}
	d := counters["cold"].minus(counters["hot"])
	hedgeWins := 0
	for _, c := range results {
		if c.hedged {
			hedgeWins++
		}
	}
	r.set("fleet.hedges", float64(d.coord["fleet.hedges"]), "count")
	r.set("fleet.hedge_wins", float64(hedgeWins), "count")
	r.set("fleet.failovers", float64(d.coord["fleet.failovers"]), "count")
	r.set("fleet.sims_per_cold_key", float64(d.workers["server.jobs.executed"])/layerColdKeys, "count")
	r.set("server.jobs_executed", float64(d.workers["server.jobs.executed"]), "count")
	r.set("server.singleflight_hits", float64(d.workers["server.singleflight.hits"]), "count")
	r.set("server.peer_hits", float64(d.workers["server.peer.hits"]), "count")
	r.set("server.peer_fetch_misses", float64(d.workers["server.peer.fetch_misses"]), "count")
	if d.queueWaitN > 0 {
		r.set("server.admit_queue_wait_us", float64(d.queueWaitSum)/float64(d.queueWaitN), "us")
	} else {
		r.set("server.admit_queue_wait_us", 0, "us")
	}
	checkCold(results, sr, tr)
	r.digests = append(r.digests, "cold "+coldDigest(results))

	sp := tr.begin("restart both workers", "server", 0, tr.newOp(), 0)
	_, err = s.restartWorkers()
	sp.end()
	if err != nil {
		return nil, err
	}
	if err := snap("restart"); err != nil {
		return nil, err
	}
	var diskLat sample
	s.disk(in, first, s.owner, &diskLat, sr, tr, "disk POST /v1/run (owner)")
	if err := snap("disk"); err != nil {
		return nil, err
	}
	diskHit := median(diskLat.sorted())
	if diskHit == 0 {
		return nil, errNoSamples
	}
	r.set("server.disk_us", us(diskHit), "us")
	r.set("store.disk_hits", float64(counters["disk"].minus(counters["restart"]).workers["store.hits"]), "count")

	// The stores as a restarted worker finds them: every byte the fleet
	// served must read back identically.
	served := map[string][]byte{}
	for i, k := range in.hot {
		served[k.key] = first[i]
	}
	for _, c := range results {
		served[c.k.key] = c.body
	}
	s.halt()
	var opens []time.Duration
	var gets time.Duration
	var nGets int
	for _, w := range s.workers {
		sp := tr.begin("store.Open "+w.dir, "store", 0, tr.newOp(), 0)
		st, err := store.Open(w.dir, store.Options{MaxBytes: storeMaxBytes})
		opens = append(opens, sp.end())
		if err != nil {
			return nil, err
		}
		for _, key := range st.Keys() {
			sp := tr.begin("store.Get", "store", 0, tr.newOp(), 0)
			v, ok := st.Get(key)
			gets += sp.end()
			nGets++
			var err error
			if want, known := served[key]; !ok || !known || !bytes.Equal(v, want) {
				err = wrongf("store %s key %s: read back %d bytes (found %v), served %d", w.dir, key, len(v), ok, len(want))
			}
			r.check(err)
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	r.set("store.open_ms", ms(median(opens)), "ms")
	r.set("store.get_us", us(gets)/float64(max(nGets, 1)), "us")
	return snaps, nil
}
