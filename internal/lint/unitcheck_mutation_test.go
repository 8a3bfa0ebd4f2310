package lint_test

import (
	"testing"

	"coaxial/internal/lint"
	"coaxial/internal/lint/analysis"
)

// unitMutations plant dimension bugs into real simulator sources; the
// mutations mirror the bug classes unitcheck exists for: dropped
// conversions, doubled conversions, swapped arguments, and raw casts
// smuggling ns values into cycle-valued state.
func unitMutations() []concMutation {
	return []concMutation{
		{
			name:     "cxl-port-conversion-dropped",
			file:     "internal/cxl/pooled.go",
			old:      "port:         link.portCycles(),",
			new:      "port:         int64(link.PortNS),",
			patterns: []string{"coaxial/internal/cxl"},
			want:     []string{"declared cycles, got ns"},
		},
		{
			name:     "cxl-complete-raw-portns",
			file:     "internal/cxl/pooled.go",
			old:      pooledImports,
			new:      pooledImportsClock,
			patterns: []string{"coaxial/internal/clock", "coaxial/internal/cxl"},
			second: [2]string{
				"ready := now + p.port\n\tstart := ready",
				"ready := now + int64(clock.NS(p.port))\n\tstart := ready",
			},
			want: []string{"cross-dimension arithmetic: cycles + ns"},
		},
		{
			name:     "cxl-enqueue-compare-ns",
			file:     "internal/cxl/pooled.go",
			old:      pooledImports,
			new:      pooledImportsClock,
			patterns: []string{"coaxial/internal/clock", "coaxial/internal/cxl"},
			second: [2]string{
				"if at < p.now {",
				"if at < int64(clock.NS(p.now)) {",
			},
			want: []string{"comparing cycles to ns"},
		},
		{
			name:     "cxl-serialization-args-swapped",
			file:     "internal/cxl/cxl.go",
			old:      "return clock.SerializationCycles(memreq.LineSize, p.RXGoodputGBs)",
			new:      "return clock.SerializationCycles(int(p.RXGoodputGBs), float64(memreq.LineSize))",
			patterns: []string{"coaxial/internal/cxl"},
			want:     []string{"is GB/s, parameter is declared bytes"},
		},
		{
			name:     "dram-rcd-double-converted",
			file:     "internal/dram/subchannel.go",
			old:      "import (\n\t\"math\"\n\t\"math/bits\"\n\n\t\"coaxial/internal/memreq\"\n)",
			new:      "import (\n\t\"math\"\n\t\"math/bits\"\n\n\t\"coaxial/internal/clock\"\n\t\"coaxial/internal/memreq\"\n)",
			patterns: []string{"coaxial/internal/clock", "coaxial/internal/dram"},
			second: [2]string{
				"s.casReady[bnk] = now + s.t.RCD",
				"s.casReady[bnk] = now + int64(clock.NS(s.t.RCD))",
			},
			want: []string{"cross-dimension arithmetic: cycles + ns"},
		},
		{
			name:     "noc-latency-returns-ns",
			file:     "internal/noc/noc.go",
			old:      "package noc",
			new:      "package noc\n\nimport \"coaxial/internal/clock\"",
			patterns: []string{"coaxial/internal/clock", "coaxial/internal/noc"},
			second: [2]string{
				"return int64(h) * m.HopCycles",
				"return int64(clock.NS(int64(h) * m.HopCycles))",
			},
			want: []string{"return of ns: Latency is declared to return cycles"},
		},
		{
			name:     "cpu-token-ready-in-ns",
			file:     "internal/cpu/core.go",
			old:      "import (\n\t\"math\"\n\n\t\"coaxial/internal/memreq\"",
			new:      "import (\n\t\"math\"\n\n\t\"coaxial/internal/clock\"\n\t\"coaxial/internal/memreq\"",
			patterns: []string{"coaxial/internal/clock", "coaxial/internal/cpu"},
			second: [2]string{
				"c.tokenReadyAt = c.computeTokenReady()",
				"c.tokenReadyAt = int64(clock.NS(c.computeTokenReady()))",
			},
			want: []string{"assigning ns to field tokenReadyAt, which is declared cycles"},
		},
		{
			name:     "stats-gbs-returns-bytes-per-cycle",
			file:     "internal/stats/stats.go",
			old:      "seconds := float64(cycles) / (clock.FreqGHz * 1e9)\n\treturn float64(bytes) / 1e9 / seconds",
			new:      "seconds := float64(cycles) / (clock.FreqGHz * 1e9)\n\t_ = seconds\n\treturn float64(bytes) / float64(cycles)",
			patterns: []string{"coaxial/internal/stats"},
			want:     []string{"return of bytes/cycle: GBs is declared to return GB/s"},
		},
		{
			name: "calm-peak-conversion-dropped",
			file: "internal/calm/regulated.go",
			old:  "peakBytesCyc: clock.BytesPerCycle(peakGBs),",
			new:  "peakBytesCyc: peakGBs,",
			// The dropped call was the file's only use of clock; the
			// import goes with it so the mutated package still compiles.
			second:   [2]string{"\t\"coaxial/internal/clock\"\n", ""},
			patterns: []string{"coaxial/internal/calm"},
			want:     []string{"declared bytes/cycle, got GB/s"},
		},
	}
}

// pooledImports is the cxl port/device file's import block; the CXL
// mutations add the clock package to it so they can convert to ns.
const (
	pooledImports      = "import (\n\t\"math\"\n\n\t\"coaxial/internal/dram\""
	pooledImportsClock = "import (\n\t\"math\"\n\n\t\"coaxial/internal/clock\"\n\t\"coaxial/internal/dram\""
)

func TestUnitCheckMutations(t *testing.T) {
	runMutations(t, func() *analysis.Analyzer { return lint.NewUnitCheck(lint.DefaultUnitConfig()) }, unitMutations())
}
