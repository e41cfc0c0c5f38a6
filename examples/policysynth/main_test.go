package main

// Example runs the demo and pins its output. The simulation is
// deterministic, so every run prints exactly these lines.
func Example() {
	main()
	// Output:
	// step 1: run the exploit on an undefended browser, recording the native trace
	//     main-thread buffer read: browser: read of freed buffer 1
	//     exploited: true, trace: 13 native events
	//
	// step 2: synthesize a policy from the trace alone
	//     rule: on "worker.terminate" (shared-buffer-op) -> retain
	//           because a worker that transferred a buffer out is only terminated at the user level
	//     rule: on "sharedBuffer.read" (shared-buffer-op) -> serialize
	//           because route every access through the kernel's serializing queue
	//     rule: on "sharedBuffer.write" (shared-buffer-op) -> serialize
	//           because route every access through the kernel's serializing queue
	//
	// step 3: rerun the exploit under the synthesized policy
	//     main-thread buffer read: ok, 1337
	//     exploited: false
}
