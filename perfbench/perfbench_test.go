package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"sort"
	"strings"
	"testing"

	"coaxial/internal/cxl"
	"coaxial/internal/dram"
	"coaxial/internal/memreq"
)

// fakeChannel records the optional-interface calls a System makes.
type fakeChannel struct {
	lazy, collect []bool
	drained       int
}

func (f *fakeChannel) Enqueue(*memreq.Request, int64) bool { return true }
func (f *fakeChannel) Tick(int64)                          {}
func (f *fakeChannel) NextEvent(now int64) int64           { return now + 1 }
func (f *fakeChannel) Sync(int64)                          {}
func (f *fakeChannel) PeakGBs() float64                    { return 1 }
func (f *fakeChannel) Counters() dram.Counters             { return dram.Counters{} }
func (f *fakeChannel) ResetCounters()                      {}
func (f *fakeChannel) Idle() bool                          { return true }
func (f *fakeChannel) SetLazy(on bool)                     { f.lazy = append(f.lazy, on) }
func (f *fakeChannel) SetCollectRetired(on bool)           { f.collect = append(f.collect, on) }
func (f *fakeChannel) DrainRetired(func(*memreq.Request))  { f.drained++ }

// The System finds lazy ticking and the retired drain by type assertion on
// its backends; the decorator must satisfy both and pass the calls on.
func TestTimedBackendForwardsOptionalInterfaces(t *testing.T) {
	inner := &fakeChannel{}
	var b any = &timedBackend{inner: inner, times: &backendTimes{}}

	lt, ok := b.(interface{ SetLazy(bool) })
	if !ok {
		t.Fatal("decorator hides SetLazy")
	}
	lt.SetLazy(true)
	lt.SetLazy(false)
	if got := inner.lazy; len(got) != 2 || !got[0] || got[1] {
		t.Errorf("SetLazy calls reaching the channel = %v, want [true false]", got)
	}

	rt, ok := b.(interface {
		SetCollectRetired(bool)
		DrainRetired(func(*memreq.Request))
	})
	if !ok {
		t.Fatal("decorator hides the retired-drain interface")
	}
	rt.SetCollectRetired(true)
	rt.DrainRetired(func(*memreq.Request) {})
	if len(inner.collect) != 1 || !inner.collect[0] || inner.drained != 1 {
		t.Errorf("retired-drain calls reaching the channel: collect %v, drains %d", inner.collect, inner.drained)
	}
}

// On a real CXL channel, a write with no completer retires inside the
// device; with collection switched on through the decorator, the drain
// through the decorator hands it back.
func TestTimedBackendDrainsRealChannel(t *testing.T) {
	times := &backendTimes{}
	b := &timedBackend{inner: cxl.NewChannel(cxl.DefaultChannelConfig(), 2), times: times}
	b.SetLazy(true)
	b.SetCollectRetired(true)
	w := &memreq.Request{Addr: 1 << 12, Kind: memreq.Write}
	if !b.Enqueue(w, 1) {
		t.Fatal("enqueue refused on an empty channel")
	}
	var got []*memreq.Request
	for now := int64(1); now < 100_000 && len(got) == 0; now = b.NextEvent(now) {
		b.Tick(now)
		b.DrainRetired(func(r *memreq.Request) { got = append(got, r) })
	}
	if len(got) != 1 || got[0] != w {
		t.Fatalf("drained %v, want the write", got)
	}
	if times.enqueue.calls != 1 || times.tick.calls == 0 || times.next.calls == 0 {
		t.Errorf("counted enqueue %d, tick %d, next-event %d calls", times.enqueue.calls, times.tick.calls, times.next.calls)
	}
	if times.depth != 0 {
		t.Errorf("call depth %d after returning", times.depth)
	}
}

func TestPercentileAndTenBeyondRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending: the helper must sort
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{100, 50, 50, true},
		{100, 90, 90, true},
		{99, 90, 90, false}, // rank 90 leaves 9 beyond
		{20, 50, 10, true},
		{19, 50, 10, false},
		{1, 50, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.wantOK)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestChangedDigestCountsAsFailure(t *testing.T) {
	pinned := newTally(map[string]string{"window": "aaaa"})
	pinned.record("window", "aaaa", nil)
	pinned.record("window", "bbbb", nil)
	if pinned.attempted != 2 || pinned.failed != 1 {
		t.Errorf("against a pin: attempted %d, failed %d; want 2, 1", pinned.attempted, pinned.failed)
	}

	// Away from the default seed the first result is the reference.
	free := newTally(nil)
	free.record("a", "1111", nil)
	free.record("a", "1111", nil)
	free.record("b", "2222", nil)
	free.record("a", "3333", nil)
	free.record("a", "", errors.New("window failed"))
	if free.attempted != 5 || free.failed != 2 {
		t.Errorf("against the first result: attempted %d, failed %d; want 5, 2", free.attempted, free.failed)
	}
	if free.refs["a"] != "1111" || free.refs["b"] != "2222" {
		t.Errorf("references %v", free.refs)
	}
}

// Every workload runs end to end on tiny windows, traced and untraced,
// with no failed operation and every schema metric in the result line.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			o := options{seed: 7, seconds: 0.2, trace: trace, setups: 1, tiny: true}
			rep, err := workloads[name](o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var buf bytes.Buffer
			if err := rep.print(&buf, name, o); err != nil {
				t.Fatalf("%s trace=%v: printing: %v", name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed: %v", name, trace, res.Correct, res.Failed, res.Attempted, rep.tally.errs)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
		}
	}
}

// BENCHMARK.json at the repository root must name exactly the workloads
// and metrics this program prints.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}
