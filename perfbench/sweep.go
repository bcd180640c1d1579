package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// The sweep workload's scale: the Figures 7/8/9b arbitrator sweep over
// n = 4 and 8 InO cores per OoO, one mix per point, 100k instructions per
// application in 10k-cycle intervals. It is smaller than the repository's
// "reduced" sweep (1M instructions, three mixes per point, 15-25 s a pass
// on a 2-vCPU host) so that one run holds about ten passes and their median
// is steady.
const (
	sweepInsts    = 100_000
	sweepInterval = 10_000
)

// sweepScale derives the scale from the seed. Figure7 draws its mixes from
// fixed names, so the seed moves the instruction target by up to 1,550
// instructions (1.6%): every seed is a distinct simulation of nearly the
// same size.
func sweepScale(seed uint64) experiments.Scale {
	return experiments.Scale{
		Name:           "perfbench",
		TargetInsts:    sweepInsts + 50*int64(seed%32),
		IntervalCycles: sweepInterval,
		MixesPerPoint:  1,
		NValues:        []int{4, 8},
		Parallel:       1,
	}
}

// sweepPolicies is the column order of Figures 7, 8 and 9b.
var sweepPolicies = []core.Policy{core.PolicySCMPKI, core.PolicySCMPKIMaxSTP, core.PolicyMaxSTP}

// mixRun is one core.RunMix the sweep makes.
type mixRun struct {
	cfg core.Config
	res *core.MixResult
	d   time.Duration
}

// sweepJob is one (n, mix) point: Homo-OoO, Homo-InO, then one run per
// arbitrator, as the sweep simulates them.
type sweepJob struct {
	homoOoO mixRun
	homoInO mixRun
	policy  map[core.Policy]mixRun
}

// runs lists the job's simulations in the order the sweep runs them.
func (j sweepJob) runs() []mixRun {
	out := []mixRun{j.homoOoO, j.homoInO}
	for _, p := range sweepPolicies {
		out = append(out, j.policy[p])
	}
	return out
}

// sweepJobs lists the configurations the sweep simulates: the mixes come
// from core.RandomMixes under the sweep's per-n names, and each job is seeded
// by its (n, mix) position, as experiments.Figure7 does.
func sweepJobs(sc experiments.Scale) []sweepJob {
	var jobs []sweepJob
	for _, n := range sc.NValues {
		for mi, mix := range core.RandomMixes(core.MixRandom, n, sc.MixesPerPoint, fmt.Sprintf("sweep-n%d", n)) {
			base := core.Config{
				Benchmarks:     mix,
				TargetInsts:    sc.TargetInsts,
				IntervalCycles: sc.IntervalCycles,
				Seed:           fmt.Sprintf("sw-%d-%d", n, mi),
			}
			j := sweepJob{policy: map[core.Policy]mixRun{}}
			j.homoOoO.cfg = base
			j.homoOoO.cfg.Topology = core.TopologyHomoOoO
			j.homoInO.cfg = base
			j.homoInO.cfg.Topology = core.TopologyHomoInO
			for _, pt := range core.ArbitratorSet {
				cfg := base
				cfg.Topology, cfg.Policy = pt.Topology, pt.Policy
				j.policy[pt.Policy] = mixRun{cfg: cfg}
			}
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// directSweep runs every simulation of the sweep through core.RunMix, one
// at a time, with a span around each call.
func directSweep(sc experiments.Scale, tr *tracer, parent int64) ([]sweepJob, error) {
	jobs := sweepJobs(sc)
	run := func(m *mixRun) error {
		sp := tr.begin("core.RunMix "+m.cfg.Topology.String()+" "+string(m.cfg.Policy), "core", parent, parent, 0)
		res, err := core.RunMix(context.Background(), m.cfg)
		m.d = sp.end()
		if err != nil {
			return fmt.Errorf("core.RunMix %s/%s seed %s: %w", m.cfg.Topology, m.cfg.Policy, m.cfg.Seed, err)
		}
		m.res = res
		return nil
	}
	for i := range jobs {
		j := &jobs[i]
		if err := run(&j.homoOoO); err != nil {
			return nil, err
		}
		if err := run(&j.homoInO); err != nil {
			return nil, err
		}
		for _, p := range sweepPolicies {
			m := j.policy[p]
			if err := run(&m); err != nil {
				return nil, err
			}
			j.policy[p] = m
		}
	}
	return jobs, nil
}

// stp is the benchmark's own system-throughput arithmetic: the mean over
// applications of IPC relative to the same application's Homo-OoO IPC.
func stp(ipc, ref []float64) (float64, error) {
	if len(ipc) != len(ref) || len(ipc) == 0 {
		return 0, wrongf("STP over %d IPCs against %d reference IPCs", len(ipc), len(ref))
	}
	var s float64
	for i := range ipc {
		if !(ref[i] > 0) || math.IsInf(ref[i], 0) || !(ipc[i] > 0) || math.IsInf(ipc[i], 0) {
			return 0, wrongf("IPC %v against reference %v", ipc[i], ref[i])
		}
		s += ipc[i] / ref[i]
	}
	return s / float64(len(ipc)), nil
}

func pctCell(x float64) string { return fmt.Sprintf("%.0f%%", x*100) }

// sweepCells recomputes every Figure 7, 8 and 9b cell from the per-app IPCs,
// energies and OoO-active fractions core.RunMix returned, and checks the
// invariant that holds whatever the model: every OoO-active fraction lies in
// [0, 1]. The figures print whole percents, so a cell comparison resolves a
// difference of one percentage point, no finer. Homo-OoO STP is not checked:
// the figures do not publish it, and recomputed from the Homo-OoO IPCs
// against themselves it is 1 by construction.
func sweepCells(sc experiments.Scale, jobs []sweepJob) (map[string][][]string, error) {
	cells := map[string][][]string{}
	for ni, n := range sc.NValues {
		var inSTP, inEnergy float64
		polSTP := map[core.Policy]float64{}
		polEnergy := map[core.Policy]float64{}
		polActive := map[core.Policy]float64{}
		for mi := 0; mi < sc.MixesPerPoint; mi++ {
			j := jobs[ni*sc.MixesPerPoint+mi]
			ref := j.homoOoO.res
			if !(ref.EnergyPJ > 0) {
				return nil, wrongf("n=%d: Homo-OoO energy %v pJ", n, ref.EnergyPJ)
			}
			s, err := stp(j.homoInO.res.PerAppIPC, ref.PerAppIPC)
			if err != nil {
				return nil, err
			}
			inSTP += s
			inEnergy += j.homoInO.res.EnergyPJ / ref.EnergyPJ
			for _, p := range sweepPolicies {
				m := j.policy[p].res
				s, err := stp(m.PerAppIPC, ref.PerAppIPC)
				if err != nil {
					return nil, err
				}
				if m.OoOActiveFrac < 0 || m.OoOActiveFrac > 1 {
					return nil, wrongf("n=%d %s: OoO-active fraction %v outside [0, 1]", n, p, m.OoOActiveFrac)
				}
				polSTP[p] += s
				polEnergy[p] += m.EnergyPJ / ref.EnergyPJ
				polActive[p] += m.OoOActiveFrac
			}
		}
		k := float64(sc.MixesPerPoint)
		row7 := []string{fmt.Sprint(n), pctCell(inSTP / k)}
		row8 := []string{fmt.Sprint(n), pctCell(inEnergy / k)}
		row9 := []string{fmt.Sprint(n)}
		for _, p := range sweepPolicies {
			row7 = append(row7, pctCell(polSTP[p]/k))
			row8 = append(row8, pctCell(polEnergy[p]/k))
			row9 = append(row9, pctCell(polActive[p]/k))
		}
		cells["Figure 7"] = append(cells["Figure 7"], row7)
		cells["Figure 8"] = append(cells["Figure 8"], row8)
		cells["Figure 9b"] = append(cells["Figure 9b"], row9)
	}
	return cells, nil
}

// sweepDigest hashes the simulated statistics of every run of the sweep.
func sweepDigest(jobs []sweepJob) string {
	var vs []float64
	for _, j := range jobs {
		for _, m := range j.runs() {
			vs = append(vs, m.res.PerAppIPC...)
			vs = append(vs, m.res.EnergyPJ, m.res.OoOActiveFrac, float64(m.res.Cluster.Migrations),
				float64(m.res.Cluster.Intervals), float64(m.res.Cluster.WallCycles))
		}
	}
	return hashFloats(vs)
}

// sweepPass is one pass of the sweep as a user runs it: experiment caches
// reset, then Figures 7, 8 and 9b (the last two reuse the first's sweep).
func sweepPass(sc experiments.Scale) (map[string][][]string, error) {
	experiments.ResetCaches()
	got := map[string][][]string{}
	for _, fig := range []struct {
		id  string
		run func(context.Context, experiments.Scale) (*experiments.Report, error)
	}{{"Figure 7", experiments.Figure7}, {"Figure 8", experiments.Figure8}, {"Figure 9b", experiments.Figure9b}} {
		rep, err := fig.run(context.Background(), sc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fig.id, err)
		}
		got[fig.id] = rep.Table.Rows
	}
	return got, nil
}

// matchCells compares a pass's tables with the recomputed cells.
func matchCells(want, got map[string][][]string) error {
	for id, rows := range want {
		if fmt.Sprint(got[id]) != fmt.Sprint(rows) {
			return wrongf("%s: table %v, recomputed %v", id, got[id], rows)
		}
	}
	return nil
}

func runSweep(cfg runConfig, r *report) error {
	r.set("setup_s", timeSuiteSetup(nil).Seconds(), "s")
	sc := sweepScale(cfg.seed)
	jobs, err := directSweep(sc, nil, 0)
	if err != nil {
		return err
	}
	cells, err := sweepCells(sc, jobs)
	r.check(err)
	r.digests = append(r.digests, "sweep "+sweepDigest(jobs))

	// One untimed pass with the invariant audit threaded through every
	// simulation: a violation fails the pass.
	audited := sc
	audited.Audit = true
	got, err := sweepPass(audited)
	if err != nil {
		err = wrongf("audited pass: %v", err)
	} else if cells != nil {
		err = matchCells(cells, got)
	}
	r.check(err)

	var passes []time.Duration
	deadline := time.Now().Add(cfg.seconds)
	for len(passes) < 3 || time.Now().Before(deadline) {
		start := time.Now()
		got, err := sweepPass(sc)
		passes = append(passes, time.Since(start))
		if err == nil && cells != nil {
			err = matchCells(cells, got)
		}
		r.check(err)
	}
	var total time.Duration
	for _, d := range passes {
		total += d
	}
	p50 := median(passes)
	r.set("op_p50_ms", ms(p50), "ms")
	r.set("ops_per_s", float64(len(passes))/total.Seconds(), "1/s")
	r.note("sweep_s", p50.Seconds(), "s")
	r.note("sweep_passes", float64(len(passes)), "count")
	return nil
}
