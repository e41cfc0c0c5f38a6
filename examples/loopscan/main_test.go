package main

// Example runs the demo and pins its output. The simulation is
// deterministic, so every run prints exactly these lines.
func Example() {
	main()
	// Output:
	// Loopscan: inferring the co-resident site from event-loop contention
	//
	// browser                  gap: google (ms)  gap: youtube (ms) verdict
	// Chrome                               8.00              25.00 LEAKS: sites distinguishable
	// JSKernel (chrome)                    1.00               1.00 defended: constant quantum
	//
	// The kernel's scheduler spaces every observable event one logical
	// quantum (1.000ms) apart, so event-loop contention is invisible.
}
