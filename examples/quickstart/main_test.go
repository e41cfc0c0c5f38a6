package main

// Example runs the demo and pins its output. The simulation is
// deterministic, so every run prints exactly these lines.
func Example() {
	main()
	// Output:
	// page start:                 performance.now() =   0.00 ms
	// after 40ms of busy work:    performance.now() =   0.00 ms
	// redefining performance.now: browser: bindings are frozen
	// setTimeout(7ms) callback:   performance.now() =   7.00 ms
	//
	// DOM: <body><h1>hello from user space</h1></body>
	// simulation processed 2 events in 47.004ms of virtual time
}
