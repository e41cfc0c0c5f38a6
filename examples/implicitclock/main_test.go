package main

// Example runs the demo and pins its output. The simulation is
// deterministic, so every run prints exactly these lines.
func Example() {
	main()
	// Output:
	// Listing 1: worker postMessage as an implicit clock measuring an SVG filter
	//
	// browser                   ticks (200px)   ticks (1200px) verdict
	// legacy Chrome                        61              786 LEAKS: resolutions distinguishable
	// Chrome + JSKernel                     1                1 defended: counts identical
}
