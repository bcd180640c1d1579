package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/program"
	"repro/internal/telemetry"
)

// sample collects durations; safe for concurrent use.
type sample struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *sample) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

func (s *sample) sorted() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := slices.Clone(s.d)
	slices.Sort(out)
	return out
}

// pct is the nearest-rank q-quantile of sorted values (zero when empty).
func pct[T cmp.Ordered](sorted []T, q float64) T {
	var zero T
	if len(sorted) == 0 {
		return zero
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(k, 0)]
}

// tailOK reports whether at least ten of n samples lie beyond pct's
// q-quantile: a percentile with fewer is not a tail, only noise.
func tailOK(n int, q float64) bool { return n-int(math.Ceil(q*float64(n))) >= 10 }

func median[T cmp.Ordered](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return pct(s, 0.5)
}

// hashFloats digests simulated statistics for comparison by eye between
// commits.
func hashFloats(vs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tracer records spans into an in-memory telemetry.TraceSink and writes
// them as a Chrome trace when the run ends. A nil *tracer records nothing,
// so untraced runs execute the same code with no spans.
type tracer struct {
	sink *telemetry.TraceSink
	t0   time.Time
	ids  atomic.Int64
}

func newTracer() *tracer {
	return &tracer{sink: telemetry.NewTraceSink(), t0: time.Now()}
}

// span is one open span: name, start, the span that caused it and the
// operation it belongs to.
type span struct {
	tr     *tracer
	name   string
	cat    string
	id     int64
	parent int64
	op     int64
	tid    int
	start  time.Time
}

// begin opens a span. parent is 0 for a root span; op groups the spans of
// one operation (one request, one pass); tid is the client or layer lane.
func (tr *tracer) begin(name, cat string, parent, op int64, tid int) span {
	s := span{tr: tr, name: name, cat: cat, parent: parent, op: op, tid: tid, start: time.Now()}
	if tr != nil {
		s.id = tr.ids.Add(1)
	}
	return s
}

// end closes the span, records it when tracing, and returns its duration so
// metrics derive from the same measurement the trace shows.
func (s span) end() time.Duration {
	d := time.Since(s.start)
	if s.tr != nil {
		s.tr.sink.Complete(s.name, s.cat, s.start.Sub(s.tr.t0).Microseconds(), d.Microseconds(), s.tid,
			map[string]any{"id": s.id, "parent": s.parent, "op": s.op})
	}
	return d
}

// newOp returns a fresh operation ID (0 when not tracing).
func (tr *tracer) newOp() int64 {
	if tr == nil {
		return 0
	}
	return tr.ids.Add(1)
}

func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.sink.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// suiteSetupReps is how many times set-up regenerates the suite; the median
// is reported so one slow repetition does not move setup_s.
const suiteSetupReps = 7

// timeSuiteSetup measures the simulator's set-up: generating the 26
// benchmarks of the suite (phases, loop traces, dependence graphs). The first
// repetition is program.Suite's own first use; the others regenerate every
// benchmark from its parameters. It returns the median.
func timeSuiteSetup(tr *tracer) time.Duration {
	var reps []time.Duration
	sp := tr.begin("program.Suite", "program", 0, tr.newOp(), 0)
	suite := program.Suite()
	reps = append(reps, sp.end())
	for i := 1; i < suiteSetupReps; i++ {
		sp := tr.begin("program.Generate(suite)", "program", 0, tr.newOp(), 0)
		for _, b := range suite {
			program.Generate(b.Params)
		}
		reps = append(reps, sp.end())
	}
	return median(reps)
}
