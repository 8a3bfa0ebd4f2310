// Command coaxial-sim runs a single experiment: one topology (a
// single-host system or an N-host rack sharing pooled CXL devices)
// executing one workload (or one workload mix), printing the measured
// IPC, latency breakdown, bandwidth, and CALM statistics — plus, for
// racks, per-host results and pooled-device queue/fairness accounting.
//
// Usage:
//
//	coaxial-sim -config coaxial-4x -workload stream-copy
//	coaxial-sim -config ddr-baseline -workload gcc -measure 300000
//	coaxial-sim -config coaxial-asym -mix 3
//	coaxial-sim -config coaxial-pooled -hosts 4 -rack 0
//	coaxial-sim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"coaxial"
	"coaxial/internal/profiling"
)

func main() {
	var (
		cfgName  = flag.String("config", "coaxial-4x", "topology preset (see -list)")
		hosts    = flag.Int("hosts", 0, "scale the topology to N hosts (0 = preset default; >1 runs the rack path)")
		workload = flag.String("workload", "stream-copy", "workload name (see -list)")
		mix      = flag.Int("mix", -1, "run workload mix N instead of -workload")
		rackMix  = flag.Int("rack", -1, "run mixed-MPKI rack mix N instead of -workload")
		warmup   = flag.Uint64("warmup", 40_000, "timed warmup instructions per core")
		measure  = flag.Uint64("measure", 150_000, "measured instructions per core")
		seed     = flag.Uint64("seed", 1, "workload generation seed")
		cores    = flag.Int("active", 0, "active cores per host (0 = all)")
		calmR    = flag.Float64("calm-r", 0.70, "CALM_R threshold (with -calm calm-r)")
		calmKind = flag.String("calm", "", "CALM override: off, calm-r, map-i, ideal")
		cxlNS    = flag.Float64("cxl-premium", 0, "CXL total latency premium in ns (0 = default 50)")
		clocking = flag.String("clocking", "event", "clock advance: event (skip dead cycles) or cycle (reference loop); results are identical")
		validate = flag.Bool("validate", false, "run the differential validation harness (DDR timing oracle + lifecycle invariants); observation-only")
		sampleD  = flag.Uint64("sample-detail", 0, "sampled simulation: detailed-window instructions per core (with -sample-ff)")
		sampleF  = flag.Uint64("sample-ff", 0, "sampled simulation: fast-forward gap instructions per core (with -sample-detail)")
		list     = flag.Bool("list", false, "list topologies and workloads")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	stopProf, profErr := profiling.Start(*cpuProf, *memProf)
	if profErr != nil {
		fatalf("%v", profErr)
	}
	defer stopProf()

	if *list {
		fmt.Println("topologies (scale any with -hosts N):")
		for _, name := range coaxial.TopologyNames() {
			fmt.Printf("  %s\n", name)
		}
		fmt.Println("workloads:")
		fmt.Printf("  %s\n", strings.Join(coaxial.WorkloadNames(), " "))
		return
	}

	preset, err := coaxial.TopologyPresetByName(*cfgName)
	if err != nil {
		fatalf("%v", err)
	}
	if *hosts > 0 {
		preset = preset.WithHosts(*hosts)
	}
	for i := range preset.Rack.Hosts {
		cfg := preset.Rack.Hosts[i]
		if *cores > 0 {
			cfg = cfg.WithActiveCores(*cores)
		}
		switch *calmKind {
		case "":
		case "off":
			cfg = cfg.WithCALM(coaxial.CALMConfig{Kind: coaxial.CALMOff})
		case "calm-r":
			cfg = cfg.WithCALM(coaxial.CALMR(*calmR))
		case "map-i":
			cfg = cfg.WithCALM(coaxial.CALMConfig{Kind: coaxial.CALMMAPI})
		case "ideal":
			cfg = cfg.WithCALM(coaxial.CALMConfig{Kind: coaxial.CALMIdeal})
		default:
			fatalf("unknown CALM mechanism %q", *calmKind)
		}
		if *cxlNS > 0 {
			cfg = cfg.WithCXLPortNS(*cxlNS / 4)
		}
		preset.Rack.Hosts[i] = cfg
	}

	mode := coaxial.EventDriven
	switch *clocking {
	case "event":
	case "cycle":
		mode = coaxial.CycleByCycle
	default:
		fatalf("unknown clocking mode %q (want event or cycle)", *clocking)
	}
	opts := []coaxial.RunnerOption{
		coaxial.WithSeed(*seed),
		coaxial.WithWindows(0, *warmup, *measure),
		coaxial.WithClocking(mode),
	}
	if *validate {
		opts = append(opts, coaxial.WithValidation())
	}
	if *sampleD > 0 || *sampleF > 0 {
		if *sampleD == 0 || *sampleF == 0 {
			fatalf("-sample-detail and -sample-ff must both be set")
		}
		opts = append(opts, coaxial.WithSampling(*sampleD, *sampleF))
	}
	runner := coaxial.NewRunner(opts...)

	// SIGINT stops the simulation cleanly at the next cycle-window boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// One host: the classic single-system path (bit-identical to a 1-host
	// rack, and faster). More: the rack path proper.
	if cfg, ok := preset.Single(); ok {
		res, err := runSingle(ctx, runner, cfg, *workload, *mix, *rackMix)
		if err != nil {
			fatalf("%v", err)
		}
		printResult(res)
		return
	}
	wls := make([][]coaxial.Workload, len(preset.Rack.Hosts))
	for h, cfg := range preset.Rack.Hosts {
		n := cfg.ActiveCores
		if n == 0 {
			n = cfg.Cores
		}
		switch {
		case *rackMix >= 0:
			wls[h] = coaxial.RackMixWorkloads(*rackMix+h, n)
		case *mix >= 0:
			wls[h] = coaxial.MixWorkloads(*mix+h, n)
		default:
			w, err := coaxial.WorkloadByName(*workload)
			if err != nil {
				fatalf("%v", err)
			}
			wls[h] = make([]coaxial.Workload, n)
			for i := range wls[h] {
				wls[h][i] = w
			}
		}
	}
	rr, err := runner.RunRack(ctx, preset.Rack, wls)
	if err != nil {
		fatalf("%v", err)
	}
	printRackResult(rr)
}

func runSingle(ctx context.Context, runner *coaxial.Runner, cfg coaxial.Config, workload string, mix, rackMix int) (coaxial.Result, error) {
	switch {
	case rackMix >= 0:
		return runner.RunMix(ctx, cfg, coaxial.RackMixWorkloads(rackMix, cfg.Cores))
	case mix >= 0:
		return runner.RunMix(ctx, cfg, coaxial.MixWorkloads(mix, cfg.Cores))
	default:
		w, err := coaxial.WorkloadByName(workload)
		if err != nil {
			return coaxial.Result{}, err
		}
		return runner.Run(ctx, cfg, w)
	}
}

func printResult(r coaxial.Result) {
	fmt.Printf("config:    %s\n", r.Config)
	fmt.Printf("workload:  %s\n", r.Workload)
	fmt.Printf("cycles:    %d (%.1f us)\n", r.Cycles, float64(r.Cycles)/2400)
	fmt.Printf("IPC:       %.3f (CPI %.2f) over %d retired instructions\n", r.IPC, r.CPI, r.Retired)
	fmt.Printf("L2-miss latency: %.0f ns = onchip %.0f + queue %.0f + dram %.0f + cxl %.0f\n",
		r.TotalNS, r.OnChipNS, r.QueueNS, r.ServiceNS, r.CXLNS)
	fmt.Printf("latency percentiles: p50 %.0f ns, p90 %.0f ns, p99 %.0f ns\n", r.P50NS, r.P90NS, r.P99NS)
	fmt.Printf("bandwidth: read %.1f GB/s + write %.1f GB/s = %.1f of %.1f GB/s peak (%.0f%%)\n",
		r.ReadGBs, r.WriteGBs, r.ReadGBs+r.WriteGBs, r.PeakGBs, r.Utilization*100)
	fmt.Printf("LLC:       MPKI %.1f, miss ratio %.0f%%\n", r.LLCMPKI, r.LLCMissRatio*100)
	fmt.Printf("DRAM:      ACT %d PRE %d RD %d WR %d REF %d (row hits %d / misses %d)\n",
		r.DRAM.ACT, r.DRAM.PRE, r.DRAM.RD, r.DRAM.WR, r.DRAM.REF, r.DRAM.RowHits, r.DRAM.RowMisses)
	e := coaxial.DRAMEnergyOf(r)
	fmt.Printf("DRAM energy: %.1f uJ (act %.0f%%, rd %.0f%%, wr %.0f%%, ref %.0f%%, bg %.0f%%) = %.2f W avg\n",
		e.TotalPJ()/1e6,
		100*e.ActivatePJ/e.TotalPJ(), 100*e.ReadPJ/e.TotalPJ(), 100*e.WritePJ/e.TotalPJ(),
		100*e.RefreshPJ/e.TotalPJ(), 100*e.BackgroundPJ/e.TotalPJ(), e.AveragePowerW(r.Cycles))
	d := r.CALM
	if d.L2Misses > 0 {
		fmt.Printf("CALM:      %d L2 misses, %d CALMed (FP %.1f%% of mem accesses, FN %.1f%% of LLC misses)\n",
			d.L2Misses, d.CALMed, d.FPRate()*100, d.FNRate()*100)
	}
}

func printRackResult(r coaxial.RackResult) {
	fmt.Printf("rack:      %s (%d hosts, %d pooled devices)\n", r.Config, len(r.Hosts), len(r.Devices))
	fmt.Printf("cycles:    %d (%.1f us)\n", r.Cycles, float64(r.Cycles)/2400)
	fmt.Printf("IPC:       mean %.3f, geomean %.3f, fairness %.3f\n", r.MeanIPC, r.GeomeanIPC, r.FairnessIndex)
	for h, hr := range r.Hosts {
		fmt.Printf("host %d:    IPC %.3f (%s), L2-miss %.0f ns (queue %.0f), %.1f GB/s, %d retired\n",
			h, hr.IPC, hr.Workload, hr.TotalNS, hr.QueueNS, hr.ReadGBs+hr.WriteGBs, hr.Retired)
	}
	for _, d := range r.Devices {
		fmt.Printf("device %s: queue p50 %.0f / p90 %.0f / p99 %.0f ns, %.1f of %.1f GB/s\n",
			d.Name, d.QueueP50NS, d.QueueP90NS, d.QueueP99NS, d.ReadGBs+d.WriteGBs, d.PeakGBs)
		var shares []string
		for h := range d.HostReadBytes {
			shares = append(shares, fmt.Sprintf("host %d %.1f MB", h,
				float64(d.HostReadBytes[h]+d.HostWriteBytes[h])/1e6))
		}
		fmt.Printf("           traffic: %s\n", strings.Join(shares, ", "))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "coaxial-sim: "+format+"\n", args...)
	os.Exit(1)
}
