package main

// pinnedDigests are the result digests at the default seed, per workload
// and result key (see digest). A perf change must leave them unchanged; a
// change that alters simulated behaviour on purpose updates them here.
var pinnedDigests = map[string]map[string]string{
	"loaded": {"window": "5cbfc4badbecf6b4"},
	"idle":   {"window": "3905f05884ad47d2"},
	"rack2h": {"window": "3351dcd8e1661ed1"},
	"serve_sweep": {
		"coaxial-4x/PageRank":      "d80f89287ab7b70c",
		"coaxial-4x/canneal":       "4e3cd24ac68683b6",
		"coaxial-4x/gcc":           "3463459b48f610ab",
		"coaxial-4x/stream-copy":   "4291904719ae5505",
		"coaxial-asym/PageRank":    "6d0b1406da4758cf",
		"coaxial-asym/canneal":     "d8dd3d40940cc4ff",
		"coaxial-asym/gcc":         "e9afd6ea2ede70d4",
		"coaxial-asym/stream-copy": "7b4bc46acca52e31",
		"ddr-baseline/PageRank":    "2e21208c65be00e9",
		"ddr-baseline/canneal":     "fafd742e554e867a",
		"ddr-baseline/gcc":         "d0506aec60b7d005",
		"ddr-baseline/stream-copy": "06a873b88acbe1a3",
	},
}
