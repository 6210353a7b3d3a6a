package main

import "os"

// Example runs the program on its default workload and pins its whole
// output, so the test suite exercises the pipeline this example
// documents.
func Example() {
	// The test binary's own flags are not a workload name: run the
	// default one.
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = args[:1]
	main()
	// Output:
	// design-space study for adpcm
	// base: real IPC 0.753, clone IPC 0.777
	//
	// design change          real speedup  clone spdup    RE(ipc)  RE(power)
	// double ROB+LSQ               1.006x       1.028x      2.19%      1.69%
	// halve L1D                    1.000x       1.000x      0.01%      0.18%
	// double width                 1.380x       1.512x      9.54%      8.08%
	// not-taken predictor          0.652x       0.664x      1.95%      2.28%
	// in-order issue               0.987x       0.970x      1.73%      0.86%
	//
	// RE is the paper's relative-error metric (Section 5.2): how far the
	// clone's predicted change deviates from the real program's change.
}
