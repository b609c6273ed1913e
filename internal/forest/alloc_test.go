//go:build !race

package forest

import (
	"context"
	"testing"

	"congestmst/internal/bfstree"
	"congestmst/internal/congest"
	"congestmst/internal/graph"
	"congestmst/internal/parsim"
)

// allocsPerMsgBudget bounds the allocations of a whole Fiber-engine run
// of BFS construction plus Program (engine set-up and the per-vertex
// runners included) per delivered message. The phase program itself
// parks allocation-free; before it did, the same run cost about 20
// allocations per message.
const allocsPerMsgBudget = 0.5

// TestProgramAllocsPerMessage runs the base-forest construction on a
// fixed random graph on the Fiber engine and holds its allocations per
// delivered message under allocsPerMsgBudget.
func TestProgramAllocsPerMessage(t *testing.T) {
	const n, m, k = 1024, 3072, 32
	g, err := graph.RandomConnected(n, m, graph.GenOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var msgs int64
	allocs := testing.AllocsPerRun(3, func() {
		factory := congest.StepFiberFactory(n, func(c congest.Context) congest.Step {
			return bfstree.BuildStep(c, 0, func(c congest.Context, _ *bfstree.Tree) congest.Step {
				return Program(c, k, nil, func(congest.Context, *State) congest.Step { return congest.Done() })
			})
		})
		stats, err := parsim.NewEngine(g, parsim.Config{Workers: 1}).RunFiberContext(context.Background(), factory)
		if err != nil {
			t.Fatal(err)
		}
		msgs = stats.Messages
	})
	perMsg := allocs / float64(msgs)
	t.Logf("%.0f allocs for %d messages: %.3f per message", allocs, msgs, perMsg)
	if perMsg > allocsPerMsgBudget {
		t.Errorf("%.3f allocs per message, budget %.2f", perMsg, allocsPerMsgBudget)
	}
}
