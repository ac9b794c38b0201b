package main

// Example runs Alice's and Bob's requests under BASE and GH and pins the
// verdicts: BASE leaks the secret, GH erases it.
func Example() {
	main()
	// Output:
	// A buggy function caches request data in a global buffer.
	// Alice invokes it with secret 0xA11CE5EC4E7; then Bob invokes it.
	//
	// base:   Bob reads Alice's secret: 0xa11ce5ec4e7 — LEAK
	// gh:     Bob sees nothing — requests are isolated
}
