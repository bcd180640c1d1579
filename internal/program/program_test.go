package program

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

func TestSuiteComplete(t *testing.T) {
	suite := Suite()
	if len(suite) != 26 {
		t.Fatalf("suite has %d benchmarks, want the 26 of Table 1", len(suite))
	}
	hpd, lpd := ByCategory(HPD), ByCategory(LPD)
	if len(hpd) != 13 || len(lpd) != 13 {
		t.Errorf("category sizes %d/%d, want 13/13", len(hpd), len(lpd))
	}
	for _, want := range []string{"hmmer", "mcf", "bzip2", "gcc", "astar", "libquantum"} {
		if ByName(want) == nil {
			t.Errorf("benchmark %q missing", want)
		}
	}
	if ByName("doom") != nil {
		t.Error("phantom benchmark resolved")
	}
}

// TestByNameIsALookup: ByName resolves a name without allocating (the
// server calls it for every benchmark of every request) and still returns
// nil for an unknown name.
func TestByNameIsALookup(t *testing.T) {
	want := ByName("hmmer")
	if want == nil || want.Name != "hmmer" {
		t.Fatalf("ByName(hmmer) = %v", want)
	}
	var got *Benchmark
	if allocs := testing.AllocsPerRun(100, func() { got = ByName("hmmer") }); allocs != 0 {
		t.Fatalf("ByName allocates %v times per call, want 0", allocs)
	}
	if got != want {
		t.Fatal("ByName returned a different benchmark on a repeat call")
	}
	if ByName("doom") != nil {
		t.Fatal("phantom benchmark resolved")
	}
	// Suite hands out its own slice: a caller editing it cannot corrupt
	// later lookups.
	s := Suite()
	s[0] = nil
	if Suite()[0] == nil {
		t.Fatal("Suite returned a shared slice")
	}
}

func TestGeneratedTracesValid(t *testing.T) {
	for _, b := range Suite() {
		for pi, ph := range b.Phases {
			if len(ph.Loops) == 0 {
				t.Errorf("%s phase %d has no loops", b.Name, pi)
			}
			for _, l := range ph.Loops {
				if err := l.Trace.Validate(); err != nil {
					t.Errorf("%s: %v", b.Name, err)
				}
				if l.Weight <= 0 {
					t.Errorf("%s: non-positive loop weight", b.Name)
				}
				if l.Deps == nil {
					t.Errorf("%s: missing dependence graph", b.Name)
				}
				if n := l.Trace.Len(); n < b.Params.TraceLenMin || n > b.Params.TraceLenMax {
					t.Errorf("%s: trace length %d outside [%d, %d]",
						b.Name, n, b.Params.TraceLenMin, b.Params.TraceLenMax)
				}
				if l.Trace.Insts[l.Trace.Len()-1].Op != isa.Branch {
					t.Errorf("%s: trace does not end in a backward branch", b.Name)
				}
			}
		}
	}
}

func TestPhasesOrdered(t *testing.T) {
	for _, b := range Suite() {
		last := int64(-1)
		for _, ph := range b.Phases {
			if ph.StartInst <= last {
				t.Errorf("%s: phase starts not strictly increasing", b.Name)
			}
			last = ph.StartInst
		}
		if b.Phases[0].StartInst != 0 {
			t.Errorf("%s: first phase starts at %d", b.Name, b.Phases[0].StartInst)
		}
	}
}

func TestPhaseAt(t *testing.T) {
	b := ByName("bzip2")
	if got := b.PhaseAt(0); got != 0 {
		t.Errorf("PhaseAt(0) = %d", got)
	}
	second := b.Phases[1].StartInst
	if got := b.PhaseAt(second); got != 1 {
		t.Errorf("PhaseAt(start of phase 1) = %d", got)
	}
	if got := b.PhaseAt(second - 1); got != 0 {
		t.Errorf("PhaseAt(just before phase 1) = %d", got)
	}
	// Execution wraps around after the program restarts.
	if got := b.PhaseAt(b.PhaseLen()); got != 0 {
		t.Errorf("PhaseAt(wrap) = %d", got)
	}
}

func TestIrregularWeightShare(t *testing.T) {
	b := ByName("astar") // IrregularFrac 0.55
	for pi, ph := range b.Phases {
		var wIrr, wAll float64
		for _, l := range ph.Loops {
			wAll += l.Weight
			if l.Trace.Stability == 0 {
				wIrr += l.Weight
			}
		}
		if wIrr == 0 {
			continue // a phase may draw no irregular traces
		}
		share := wIrr / wAll
		if share < 0.4 || share > 0.7 {
			t.Errorf("astar phase %d irregular share %.2f, want ~0.55", pi, share)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := suiteParams()[0]
	a, b := Generate(p), Generate(p)
	if len(a.Phases) != len(b.Phases) {
		t.Fatal("phase counts differ")
	}
	for i := range a.Phases {
		for j := range a.Phases[i].Loops {
			ta, tb := a.Phases[i].Loops[j].Trace, b.Phases[i].Loops[j].Trace
			if ta.ID != tb.ID || ta.Len() != tb.Len() || ta.MispredictRate != tb.MispredictRate {
				t.Fatalf("generation not deterministic at phase %d loop %d", i, j)
			}
		}
	}
}

func TestGenerateDefaults(t *testing.T) {
	b := Generate(Params{Name: "tiny"})
	if len(b.Phases) == 0 || len(b.Phases[0].Loops) == 0 {
		t.Fatal("defaulted generation produced nothing")
	}
	if b.PhaseLen() <= 0 {
		t.Error("no total length")
	}
}

func TestSharedStreamPool(t *testing.T) {
	// Traces of one benchmark must draw from a shared pool of streams —
	// the combined footprint is bounded by the pool, not by trace count.
	b := ByName("bzip2")
	bases := map[uint64]bool{}
	for _, ph := range b.Phases {
		for _, l := range ph.Loops {
			for _, s := range l.Trace.Streams {
				bases[s.Base] = true
			}
		}
	}
	if len(bases) > 4 {
		t.Errorf("bzip2 touches %d distinct stream regions, want <= pool size 4", len(bases))
	}
}

func TestRegisterVersionsBounded(t *testing.T) {
	// The generator's register rotation keeps every trace within the OinO
	// PRF version budget for the common case (see the replayability test
	// for the end-to-end check through real schedules).
	for _, b := range Suite() {
		for _, ph := range b.Phases {
			for _, l := range ph.Loops {
				for _, in := range l.Trace.Insts {
					for _, r := range []isa.Reg{in.Dst, in.Src1, in.Src2} {
						if r != isa.NoReg && !r.Valid() {
							t.Fatalf("%s: register %d invalid", b.Name, r)
						}
					}
				}
			}
		}
	}
}

func TestMemProfiles(t *testing.T) {
	check := func(name string, minWS, maxWS uint64) {
		b := ByName(name)
		for _, ph := range b.Phases {
			for _, l := range ph.Loops {
				for _, s := range l.Trace.Streams {
					if s.WorkingSet < minWS || s.WorkingSet > maxWS {
						t.Errorf("%s stream working set %d outside [%d, %d]",
							name, s.WorkingSet, minWS, maxWS)
					}
				}
			}
		}
	}
	check("hmmer", 1, 32<<10)          // L1-resident
	check("cactusADM", 64<<10, 1<<20)  // L2-resident
	check("libquantum", 4<<20, 32<<20) // memory-bound
}

func TestCategoriesMatchTable1(t *testing.T) {
	wantHPD := map[string]bool{
		"cactusADM": true, "bwaves": true, "gamess": true, "gromacs": true,
		"h264ref": true, "hmmer": true, "leslie3d": true, "libquantum": true,
		"mcf": true, "milc": true, "povray": true, "tonto": true, "zeusmp": true,
	}
	for _, b := range Suite() {
		if got := b.Params.Category == HPD; got != wantHPD[b.Name] {
			t.Errorf("%s classified %v, Table 1 says HPD=%v", b.Name, b.Params.Category, wantHPD[b.Name])
		}
	}
}

func TestMispredictRatesReflectBehaviour(t *testing.T) {
	stable := ByName("hmmer")
	chaotic := ByName("astar")
	avg := func(b *Benchmark) float64 {
		var sum float64
		var n int
		for _, ph := range b.Phases {
			for _, l := range ph.Loops {
				sum += l.Trace.MispredictRate
				n++
			}
		}
		return sum / float64(n)
	}
	if avg(stable) >= avg(chaotic) {
		t.Errorf("hmmer mispredicts (%.3f) should be below astar (%.3f)", avg(stable), avg(chaotic))
	}
}

func TestStreamSpecsValid(t *testing.T) {
	for _, b := range Suite() {
		for _, ph := range b.Phases {
			for _, l := range ph.Loops {
				for si, s := range l.Trace.Streams {
					if s.WorkingSet == 0 {
						t.Errorf("%s stream %d: zero working set", b.Name, si)
					}
					if s.Kind == trace.StreamStrided && s.Stride == 0 {
						t.Errorf("%s stream %d: strided with zero stride", b.Name, si)
					}
				}
			}
		}
	}
}
