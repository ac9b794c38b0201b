package main

import "os"

// Example deploys the default benchmark under BASE, GH-NOP and GH. Under go
// test, os.Args[1] is a -test.* flag, so the arguments are cut to the
// program name first.
func Example() {
	os.Args = os.Args[:1]
	main()
	// Output:
	// benchmark sentiment (p): exec 6.5ms, 16860-page footprint, 570 pages written/request
	//
	// # deployment comparison
	// mode    cold start  invoker lat (ms)  E2E lat (ms)  restore (ms)  tput (req/s)
	// ------  ----------  ----------------  ------------  ------------  ------------
	// base    641ms       6.65              29.64         -             600.3
	// gh-nop  678ms       6.76              29.75         -             590.5
	// gh      678ms       8.66              31.64         3.45          330.0
	//
	// GH adds only tracking faults on the critical path; restoration runs between requests.
}

// Example_c names a C function by its catalog display name.
func Example_c() {
	os.Args = []string{os.Args[0], "bicg (c)"}
	main()
	// Output:
	// benchmark bicg (c): exec 42.8ms, 980-page footprint, 30 pages written/request
	//
	// # deployment comparison
	// mode    cold start  invoker lat (ms)  E2E lat (ms)  restore (ms)  tput (req/s)
	// ------  ----------  ----------------  ------------  ------------  ------------
	// base    436ms       42.73             65.72         -             92.9
	// gh-nop  439ms       42.84             65.83         -             92.7
	// gh      439ms       42.86             65.84         0.38          91.8
	//
	// GH adds only tracking faults on the critical path; restoration runs between requests.
}
