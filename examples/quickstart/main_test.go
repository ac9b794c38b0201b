package main

// Example runs the walkthrough and pins what it prints: the snapshot and
// restore charges, and the verification that the request left nothing.
func Example() {
	main()
	// Output:
	// snapshot: 64 pages in 1.42764ms (one-time cost)
	// restore: 469.142µs (2 dirty pages found, 1 restored, 1 layout syscalls)
	// verified: process state is byte-identical to the snapshot — no data can leak
}
