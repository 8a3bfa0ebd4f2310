package serve

import (
	"strings"
	"testing"

	"coaxial"
)

// TestDecodeJobRequestRejects pins the strict-decode contract: unknown
// fields, trailing data, and type mismatches are 400s, never panics.
func TestDecodeJobRequestRejects(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"malformed", `{`},
		{"unknown field", `{"kind":"run","presett":"coaxial-4x"}`},
		{"trailing data", `{"kind":"run"} {"kind":"run"}`},
		{"negative window", `{"kind":"run","windows":{"measure":-5}}`},
		{"negative seed", `{"kind":"run","seed":-1}`},
		{"wrong type", `{"kind":["run"]}`},
		{"removed parallelism field", `{"kind":"run","parallelism":2}`},
	}
	for _, tc := range cases {
		_, err := DecodeJobRequest(strings.NewReader(tc.body))
		if err == nil {
			t.Errorf("%s: decoded %q without error", tc.name, tc.body)
			continue
		}
		if !IsRequestError(err) {
			t.Errorf("%s: error is not a RequestError: %v", tc.name, err)
		}
	}
}

// TestJobRequestPointsRejects pins request validation: every defect is a
// RequestError naming the problem.
func TestJobRequestPointsRejects(t *testing.T) {
	w := &Windows{Measure: 1000}
	cases := []struct {
		name string
		req  JobRequest
	}{
		{"missing kind", JobRequest{}},
		{"unknown kind", JobRequest{Kind: "blorp"}},
		{"run without preset", JobRequest{Kind: "run", Workload: "gcc"}},
		{"run without workload", JobRequest{Kind: "run", Preset: "coaxial-4x"}},
		{"run with lists", JobRequest{Kind: "run", Preset: "coaxial-4x", Workload: "gcc", Presets: []string{"x"}}},
		{"sweep without lists", JobRequest{Kind: "sweep", Preset: "coaxial-4x", Workload: "gcc"}},
		{"unknown preset", JobRequest{Kind: "run", Preset: "nope", Workload: "gcc", Windows: w}},
		{"unknown workload", JobRequest{Kind: "run", Preset: "coaxial-4x", Workload: "nope", Windows: w}},
		{"zero measure", JobRequest{Kind: "run", Preset: "coaxial-4x", Workload: "gcc", Windows: &Windows{}}},
		{"oversize window", JobRequest{Kind: "run", Preset: "coaxial-4x", Workload: "gcc", Windows: &Windows{Measure: MaxInstr + 1}}},
		{"too many hosts", JobRequest{Kind: "rack", Preset: "coaxial-pooled", Workload: "gcc", Hosts: MaxHosts + 1, Windows: w}},
		{"rack without hosts", JobRequest{Kind: "rack", Preset: "coaxial-pooled", Workload: "gcc", Windows: w}},
		{"too many cores", JobRequest{Kind: "run", Preset: "coaxial-4x", Workload: "gcc", ActiveCores: 99, Windows: w}},
		{"sample on rack", JobRequest{Kind: "rack", Preset: "coaxial-pooled", Workload: "gcc", Hosts: 2,
			Sample: &Sample{Detail: 100, FastForward: 100}, Windows: w}},
		{"half sample", JobRequest{Kind: "run", Preset: "coaxial-4x", Workload: "gcc",
			Sample: &Sample{Detail: 100}, Windows: w}},
		{"bad clocking", JobRequest{Kind: "run", Preset: "coaxial-4x", Workload: "gcc", Clocking: "warp", Windows: w}},
		{"negative rack_parallelism", JobRequest{Kind: "run", Preset: "coaxial-4x", Workload: "gcc", RackParallelism: -1, Windows: w}},
		{"too many points", JobRequest{Kind: "sweep",
			Presets:   []string{"ddr-baseline", "coaxial-2x", "coaxial-4x", "coaxial-5x", "coaxial-asym"},
			Workloads: coaxial.WorkloadNames()[:13], Windows: w}},
	}
	for _, tc := range cases {
		_, err := tc.req.Points()
		if err == nil {
			t.Errorf("%s: validated without error", tc.name)
			continue
		}
		if !IsRequestError(err) {
			t.Errorf("%s: error is not a RequestError: %v", tc.name, err)
		}
	}
}

// TestJobRequestPointsShapes pins point construction for each kind.
func TestJobRequestPointsShapes(t *testing.T) {
	run := JobRequest{Kind: "run", Preset: "coaxial-4x", Workload: "gcc",
		Windows: &Windows{FunctionalWarmup: 500, Warmup: 100, Measure: 1000}, Seed: 7}
	pts, err := run.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("run: %d points", len(pts))
	}
	p := pts[0]
	if p.Label != "coaxial-4x/gcc" || p.Single == nil || p.Rack != nil {
		t.Fatalf("run point shape: %+v", p)
	}
	if len(p.Workloads) != p.Single.Cores {
		t.Fatalf("run point: %d workloads for %d cores", len(p.Workloads), p.Single.Cores)
	}
	if p.RC.Seed != 7 || p.RC.MeasureInstr != 1000 || p.RC.WarmupInstr != 100 || p.RC.FunctionalWarmupInstr != 500 {
		t.Fatalf("run point RC: %+v", p.RC)
	}

	rack := JobRequest{Kind: "rack", Preset: "coaxial-pooled", Workload: "stream-copy", Hosts: 4,
		Windows: &Windows{Measure: 1000}}
	pts, err = rack.Points()
	if err != nil {
		t.Fatal(err)
	}
	p = pts[0]
	if p.Rack == nil || p.Single != nil {
		t.Fatalf("rack point shape: %+v", p)
	}
	if len(p.Rack.Hosts) != 4 || len(p.HostWorkloads) != 4 {
		t.Fatalf("rack point: %d hosts, %d workload sets", len(p.Rack.Hosts), len(p.HostWorkloads))
	}

	cores := JobRequest{Kind: "run", Preset: "ddr-baseline", Workload: "gcc", ActiveCores: 3,
		Windows: &Windows{Measure: 1000}}
	pts, err = cores.Points()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pts[0].Workloads); got != 3 {
		t.Fatalf("active_cores=3 produced %d workloads", got)
	}
}

// TestFlightKey pins single-flight keying: the key covers config, seed,
// windows, and topology, and ignores the progress observer.
func TestFlightKey(t *testing.T) {
	mk := func(mut func(*JobRequest)) Point {
		req := JobRequest{Kind: "run", Preset: "coaxial-4x", Workload: "gcc",
			Windows: &Windows{Measure: 1000}}
		if mut != nil {
			mut(&req)
		}
		pts, err := req.Points()
		if err != nil {
			t.Fatal(err)
		}
		return pts[0]
	}
	base := mk(nil)
	if base.flightKey() != mk(nil).flightKey() {
		t.Fatal("identical requests produced different flight keys")
	}
	for name, mut := range map[string]func(*JobRequest){
		"seed":     func(q *JobRequest) { q.Seed = 9 },
		"measure":  func(q *JobRequest) { q.Windows.Measure = 2000 },
		"workload": func(q *JobRequest) { q.Workload = "mcf" },
		"preset":   func(q *JobRequest) { q.Preset = "ddr-baseline" },
		"cores":    func(q *JobRequest) { q.ActiveCores = 2 },
		"clocking": func(q *JobRequest) { q.Clocking = "cycle" },
	} {
		if mk(mut).flightKey() == base.flightKey() {
			t.Errorf("%s change did not change the flight key", name)
		}
	}
	// Observation never changes identity: same key with an observer bound.
	observed := mk(nil)
	observed.RC.OnProgress = func(coaxial.Progress) {}
	if observed.flightKey() != base.flightKey() {
		t.Fatal("progress observer leaked into the flight key")
	}
}

// FuzzDecodeJobRequest fuzzes the full request path — decode, validate,
// point construction — which must never panic, whatever the bytes.
func FuzzDecodeJobRequest(f *testing.F) {
	f.Add(`{"kind":"run","preset":"coaxial-4x","workload":"gcc"}`)
	f.Add(`{"kind":"sweep","presets":["ddr-baseline"],"workloads":["mcf"],"windows":{"measure":1000}}`)
	f.Add(`{"kind":"rack","preset":"coaxial-pooled","workload":"gcc","hosts":4}`)
	f.Add(`{"kind":"run","preset":"nope","workload":"gcc","windows":{"measure":-1}}`)
	f.Add(`{"kind":"run","seed":18446744073709551615,"hosts":99999999999}`)
	f.Add(`{`)
	f.Add(``)
	f.Add(`[1,2,3]`)
	f.Add(`{"kind":"run","unknown":{"deeply":["nested"]}}`)
	f.Fuzz(func(t *testing.T, body string) {
		req, err := DecodeJobRequest(strings.NewReader(body))
		if err != nil {
			return
		}
		pts, err := req.Points()
		if err != nil {
			return
		}
		// Valid requests must produce bounded, executable points with
		// stable keys.
		if len(pts) == 0 || len(pts) > MaxPoints {
			t.Fatalf("accepted request produced %d points", len(pts))
		}
		for _, p := range pts {
			if (p.Single == nil) == (p.Rack == nil) {
				t.Fatalf("point is neither single nor rack: %+v", p)
			}
			if p.flightKey() == "" {
				t.Fatal("empty flight key")
			}
		}
	})
}
