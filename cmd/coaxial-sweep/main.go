// Command coaxial-sweep runs the full experiment grid (every topology
// preset across every workload) and emits one CSV row per run, for
// downstream analysis or plotting. It is the equivalent of the paper
// artifact's runall.py + collect_stats.py. With -hosts N, every selected
// topology scales to an N-host rack (pooled topologies share devices;
// the rest run uncoupled in lockstep) and each row is the rack summary.
//
// Usage:
//
//	coaxial-sweep > results.csv
//	coaxial-sweep -configs ddr-baseline,coaxial-4x -measure 300000
//	coaxial-sweep -configs coaxial-pooled -hosts 4 -racks 4 >> results.csv
//	coaxial-sweep -mixes 10 >> results.csv
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"coaxial"
	"coaxial/internal/profiling"
)

func main() {
	var (
		cfgList  = flag.String("configs", "ddr-baseline,coaxial-2x,coaxial-4x,coaxial-asym", "comma-separated topology presets")
		hosts    = flag.Int("hosts", 0, "scale every topology to N hosts (0 = preset default)")
		warmup   = flag.Uint64("warmup", 40_000, "timed warmup instructions per core")
		measure  = flag.Uint64("measure", 150_000, "measured instructions per core")
		seed     = flag.Uint64("seed", 1, "workload generation seed")
		mixes    = flag.Int("mixes", 0, "additionally run N workload mixes")
		racks    = flag.Int("racks", 0, "additionally run N mixed-MPKI rack mixes")
		validate = flag.Bool("validate", false, "run the differential validation harness alongside every simulation (observation-only)")
		workList = flag.String("workloads", "", "comma-separated workload subset (default: all 36)")
		workers  = flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fail(err)
	}
	defer stopProf()

	// SIGINT stops the sweep cleanly: in-flight simulations halt at their
	// next cycle-window boundary and the run exits with the cancellation
	// error instead of being killed mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rc := coaxial.DefaultRunConfig()
	rc.WarmupInstr, rc.MeasureInstr, rc.Seed = *warmup, *measure, *seed
	rc.Workers = *workers
	rc.Validate = *validate
	runner := coaxial.NewRunner(coaxial.WithRunConfig(rc))

	var presets []coaxial.TopologyPreset
	for _, name := range strings.Split(*cfgList, ",") {
		p, err := coaxial.TopologyPresetByName(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coaxial-sweep: %v\n", err)
			os.Exit(2)
		}
		if *hosts > 0 {
			p = p.WithHosts(*hosts)
		}
		presets = append(presets, p)
	}

	workloads := coaxial.Workloads()
	if *workList != "" {
		workloads = workloads[:0]
		for _, name := range strings.Split(*workList, ",") {
			w, err := coaxial.WorkloadByName(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "coaxial-sweep: %v\n", err)
				os.Exit(2)
			}
			workloads = append(workloads, w)
		}
	}

	out := csv.NewWriter(os.Stdout)
	defer out.Flush()
	header := []string{
		"config", "workload", "ipc", "cpi", "cycles",
		"onchip_ns", "queue_ns", "dram_ns", "cxl_ns", "total_ns",
		"p50_ns", "p90_ns", "p99_ns",
		"read_gbs", "write_gbs", "peak_gbs", "utilization",
		"llc_mpki", "llc_miss_ratio",
		"calm_l2miss", "calm_calmed", "calm_fp", "calm_fn",
		"dram_act", "dram_rd", "dram_wr", "dram_ref", "row_hits", "row_misses",
		"retired",
	}
	if err := out.Write(header); err != nil {
		fail(err)
	}

	var (
		jobs   []coaxial.SuiteJob
		labels []string
	)
	for _, w := range workloads {
		for _, p := range presets {
			jobs = append(jobs, rateJob(p, w))
			labels = append(labels, w.Params.Name)
		}
	}
	results, err := runner.RunSuite(ctx, jobs)
	if err != nil {
		fail(err)
	}
	for i, res := range results {
		res.Workload = labels[i]
		writeRow(out, res)
	}

	for m := 0; m < *mixes; m++ {
		for _, p := range presets {
			res, err := runMixed(ctx, runner, p, m, coaxial.MixWorkloads)
			if err != nil {
				fail(err)
			}
			res.Workload = fmt.Sprintf("mix%d", m)
			writeRow(out, res)
		}
	}

	for m := 0; m < *racks; m++ {
		for _, p := range presets {
			res, err := runMixed(ctx, runner, p, m, coaxial.RackMixWorkloads)
			if err != nil {
				fail(err)
			}
			res.Workload = fmt.Sprintf("rack%d", m)
			writeRow(out, res)
		}
	}
}

// rateJob builds one suite job: the topology running w on every active
// core of every host (single-host presets take the classic path).
func rateJob(p coaxial.TopologyPreset, w coaxial.Workload) coaxial.SuiteJob {
	if cfg, ok := p.Single(); ok {
		return coaxial.SuiteJob{Config: cfg, Workload: w}
	}
	rackCfg := p.Rack
	hw := make([][]coaxial.Workload, len(rackCfg.Hosts))
	for h, cfg := range rackCfg.Hosts {
		hw[h] = make([]coaxial.Workload, hostCores(cfg))
		for i := range hw[h] {
			hw[h][i] = w
		}
	}
	return coaxial.SuiteJob{Rack: &rackCfg, HostWorkloads: hw, Workload: w}
}

// runMixed runs workload mix m on the topology: single-host presets get
// mix m directly; racks stagger the mix index per host (host h runs mix
// m+h) so hosts stay heterogeneous, and report the rack summary row.
func runMixed(ctx context.Context, runner *coaxial.Runner, p coaxial.TopologyPreset, m int, mk func(idx, cores int) []coaxial.Workload) (coaxial.Result, error) {
	if cfg, ok := p.Single(); ok {
		return runner.RunMix(ctx, cfg, mk(m, cfg.Cores))
	}
	hw := make([][]coaxial.Workload, len(p.Rack.Hosts))
	for h, cfg := range p.Rack.Hosts {
		hw[h] = mk(m+h, hostCores(cfg))
	}
	rr, err := runner.RunRack(ctx, p.Rack, hw)
	return rr.Summary(), err
}

func hostCores(cfg coaxial.Config) int {
	if cfg.ActiveCores > 0 {
		return cfg.ActiveCores
	}
	return cfg.Cores
}

func writeRow(out *csv.Writer, r coaxial.Result) {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	rec := []string{
		r.Config, r.Workload, f(r.IPC), f(r.CPI), strconv.FormatInt(r.Cycles, 10),
		f(r.OnChipNS), f(r.QueueNS), f(r.ServiceNS), f(r.CXLNS), f(r.TotalNS),
		f(r.P50NS), f(r.P90NS), f(r.P99NS),
		f(r.ReadGBs), f(r.WriteGBs), f(r.PeakGBs), f(r.Utilization),
		f(r.LLCMPKI), f(r.LLCMissRatio),
		u(r.CALM.L2Misses), u(r.CALM.CALMed), f(r.CALM.FPRate()), f(r.CALM.FNRate()),
		u(r.DRAM.ACT), u(r.DRAM.RD), u(r.DRAM.WR), u(r.DRAM.REF), u(r.DRAM.RowHits), u(r.DRAM.RowMisses),
		u(r.Retired),
	}
	if err := out.Write(rec); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "coaxial-sweep: %v\n", err)
	os.Exit(1)
}
