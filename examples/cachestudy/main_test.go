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
	// cache design study for dijkstra (misses per 1000 instructions)
	//
	// configuration            real      clone
	// 256B/1-way/32B        143.897     71.058
	// 256B/2-way/32B         68.708     60.140
	// 256B/4-way/32B         68.708     59.042
	// 256B/full/32B          68.708     59.046
	// 512B/1-way/32B         78.908     66.671
	// 512B/2-way/32B         68.526     56.498
	// 512B/4-way/32B         68.528     56.602
	// 512B/full/32B          68.526     56.350
	// 1KB/1-way/32B          63.840     59.110
	// 1KB/2-way/32B          65.657     53.229
	// 1KB/4-way/32B          67.648     54.115
	// 1KB/full/32B           68.065     53.894
	// 2KB/1-way/32B          37.211     33.083
	// 2KB/2-way/32B          35.563     35.360
	// 2KB/4-way/32B          32.517     27.821
	// 2KB/full/32B           45.265     30.425
	// 4KB/1-way/32B          28.488     32.667
	// 4KB/2-way/32B          19.588      5.744
	// 4KB/4-way/32B          19.471      5.721
	// 4KB/full/32B           19.469      5.281
	// 8KB/1-way/32B          23.746     32.400
	// 8KB/2-way/32B          19.362      5.479
	// 8KB/4-way/32B          19.314      5.265
	// 8KB/full/32B           19.297      5.267
	// 16KB/1-way/32B         20.937      5.256
	// 16KB/2-way/32B         19.086      5.213
	// 16KB/4-way/32B         19.029      4.998
	// 16KB/full/32B          18.895      4.908
	//
	// Pearson correlation (Fig 4 metric): 0.966
	// rank correlation of all 28 configs: 0.957
	// best config by real program: 16KB/full/32B
	// best config by clone:        16KB/full/32B
	// → the clone selects the same design point as the real application
}
