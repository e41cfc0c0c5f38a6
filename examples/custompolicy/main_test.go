package main

// Example runs the demo and pins its output. The simulation is
// deterministic, so every run prints exactly these lines.
func Example() {
	main()
	// Output:
	// loaded policy "my-site-policy" with 2 rules
	//
	// worker same-origin XHR:    allowed -> {"ok":true}
	// worker cross-origin XHR:   denied -> jskernel: denied by security policy: cross-origin XHR from worker to https://other.example/secret.json
	// private-mode IndexedDB:    denied -> jskernel: denied by security policy: IndexedDB in private browsing
}
