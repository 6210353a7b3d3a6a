package main

// Example runs the program and pins its whole output, so the test suite
// exercises the pipeline this example documents.
func Example() {
	main()
	// Output:
	// what-if study on gsm's memory behaviour (base configuration)
	//
	// scenario                IPC   L1D miss    L2 miss
	// gsm-asis              0.964      0.82%     52.72%
	// gsm-4x-footprint      0.790      6.46%     50.00%
	// gsm-2x-stride         0.935      1.62%     50.52%
	//
	// Growing the footprint or sparsifying the strides degrades locality
	// and IPC — measured without ever modifying the original application.
}
