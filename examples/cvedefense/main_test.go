package main

// Example runs the demo and pins its output. The simulation is
// deterministic, so every run prints exactly these lines.
func Example() {
	main()
	// Output:
	// CVE-2018-5092: use-after-free via fetch abort into a falsely terminated worker
	//
	// legacy Chrome:      EXPLOITED — the abort reached the freed fetch
	// Chrome + JSKernel:  defended — the kernel deferred the native terminate
	//
	// the defending policy:
	// {"name":"policy_CVE-2018-5092","description":"manually specified scheduling policy for CVE-2018-5092","deterministic":true,"quantumMicros":1000,"loadPredictionMicros":10000,"rules":[{"when":{"api":"worker.terminate","pendingFetches":true},"action":"defer","reason":"hold native terminate until the worker's fetches drain, so no abort can reach freed state","cve":"CVE-2018-5092"}]}
}
