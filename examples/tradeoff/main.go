// Tradeoff: a miniature of the paper's Fig. 2/3 experiment at example scale.
// One Grover instance is simulated under the numerical representation for a
// sweep of tolerance values ε and under the exact algebraic representation;
// the program prints the size / accuracy / run-time table showing the
// trade-off the paper identifies — and the algebraic column escaping it.
package main

import (
	"context"
	"fmt"

	"repro/internal/bench"
)

func main() {
	p := bench.DefaultParams()
	p.GroverQubits = 8
	p.Stride = 64
	p.EpsList = []float64{0, 1e-20, 1e-15, 1e-10, 1e-5, 1e-3}

	fmt.Println("simulating 8-qubit Grover under every tolerance setting …")
	res, err := bench.Figure(context.Background(), "3", p)
	if err != nil {
		panic(err)
	}
	fmt.Println()
	fmt.Println(bench.Summary(res))
	fmt.Println(bench.Series(res, "nodes", 60))
	fmt.Println(bench.Series(res, "error", 60))
	fmt.Println("Reading the table against the paper's Fig. 3:")
	fmt.Println("  · ε = 0 / 1e-20: tiny error, but the diagram blows up (no redundancy found)")
	fmt.Println("  · ε = 1e-15 / 1e-10: compact AND accurate — the hand-tuned sweet spot")
	fmt.Println("  · ε = 1e-5 / 1e-3: compact until the information loss corrupts the state")
	fmt.Println("  · algebraic: compact, exactly accurate, no tuning — the paper's proposal")
}
