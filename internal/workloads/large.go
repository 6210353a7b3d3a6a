package workloads

import "perfclone/internal/prog"

// Large-input variants of selected kernels — the analog of MiBench's
// small/large input pairs (the paper evaluates on the small sets; the
// variants support input-sensitivity studies: a clone assimilates its
// input, so a different input is a different clone).
var largeRegistry = []Workload{
	{Name: "crc32-large", Domain: Telecom, Suite: "MiBench (large input)",
		Build: func() *prog.Program { return buildCRC32Sized(96 * 1024) }},
	{Name: "qsort-large", Domain: Automotive, Suite: "MiBench (large input)",
		Build: func() *prog.Program { return buildQsortSized(8192) }},
	{Name: "fft-large", Domain: Telecom, Suite: "MiBench (large input)",
		Build: func() *prog.Program { return buildFFTSized(4096) }},
	{Name: "dijkstra-large", Domain: Network, Suite: "MiBench (large input)",
		Build: func() *prog.Program { return buildDijkstraSized(192) }},
	{Name: "gsm-large", Domain: Telecom, Suite: "MiBench (large input)",
		Build: func() *prog.Program { return buildGSMSized(160) }},
	{Name: "jpeg-large", Domain: Consumer, Suite: "MiBench (large input)",
		Build: func() *prog.Program { return buildJPEGSized(192, 144) }},
}

// Large returns the large-input variants. They are intentionally not part
// of All(): the paper's 23-benchmark evaluation uses the small inputs.
func Large() []Workload {
	out := make([]Workload, len(largeRegistry))
	copy(out, largeRegistry)
	return out
}
