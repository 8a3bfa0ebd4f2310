// Command perfbench is the repository benchmark: the host-time cost of warm
// experiment windows on four workloads (loaded, idle, rack2h, serve_sweep).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload loaded --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, taken with tracing off;
// with --trace 1 it runs the workload once untraced and once traced and
// prints the per-layer metrics. Every simulated result is checked against
// a pinned digest (default seed) or the run's first result (other seeds).
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// README.md in this directory defines every workload and metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// defaultSeed is the seed the pinned digests were taken at.
const defaultSeed = 1

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// setups is how many times set-up is repeated for setup_s's median.
	setups int
	// tiny shrinks every simulation window, for the smoke tests.
	tiny bool
}

// pins returns the workload's pinned digests when the seed is the
// default and the windows are full size; nil otherwise.
func (o options) pins(workload string) map[string]string {
	if o.seed != defaultSeed || o.tiny {
		return nil
	}
	return pinnedDigests[workload]
}

// report is one invocation's outcome: its operation tally and metric
// values by name (see schema.go).
type report struct {
	tally  *tally
	values map[string]float64
	notes  []string
}

func newReport(t *tally) *report {
	return &report{tally: t, values: make(map[string]float64)}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloadFunc runs one workload and returns its report.
type workloadFunc func(o options) (*report, error)

var workloads = map[string]workloadFunc{
	"loaded":      loadedWorkload().run,
	"idle":        idleWorkload().run,
	"rack2h":      rackWorkload().run,
	"serve_sweep": serveWorkload().run,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: loaded, idle, rack2h or serve_sweep")
	seed := fl.Uint64("seed", defaultSeed, "input seed")
	seconds := fl.Float64("seconds", 20, "wall length of the timed phase, in seconds")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	wf, ok := workloads[*name]
	if !ok || fl.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments %q (workloads: %s)\n", args, strings.Join(workloadNames(), ", "))
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, setups: 3}
	rep, err := wf(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := rep.print(stdout, *name, o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// print writes the human-readable lines and then the result object as the
// last line.
func (r *report) print(w io.Writer, workload string, o options) error {
	cond, err := json.Marshal(conditions(workload, o))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "conditions %s\n", cond)
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	for _, e := range r.tally.errs {
		fmt.Fprintf(w, "failure %s\n", e)
	}
	keys := make([]string, 0, len(r.tally.refs))
	for k := range r.tally.refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "digest %s %s\n", k, r.tally.refs[k])
	}
	errRate := float64(r.tally.failed) / math.Max(1, float64(r.tally.attempted))
	fmt.Fprintf(w, "error_rate %.6g ratio (%d of %d operations failed)\n", errRate, r.tally.failed, r.tally.attempted)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.tally.failed == 0 && r.tally.attempted > 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   make(map[string]value),
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !o.trace {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Fprintf(w, "metric %-30s %.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// conditions records what the figures were measured under.
func conditions(workload string, o options) map[string]any {
	root, _ := os.Getwd()
	return map[string]any{
		"workload":      workload,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"goarch":        runtime.GOARCH,
		"commit":        commit(root),
		"source_sha256": sourceDigest(root),
	}
}

// commit names the checked-out revision when root is a git work tree, and
// "unknown" otherwise (the benchmark may run from an exported tree).
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod under root, skipping
// hidden directories (build output, VCS metadata), so figures from an
// exported tree still name the code they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
