package guardgo_test

import (
	"testing"

	"icpic3/internal/analysis/analysistest"
	"icpic3/internal/analysis/guardgo"
)

func TestGuardgo(t *testing.T) {
	analysistest.Run(t, "testdata", guardgo.Analyzer,
		"a/internal/service",
		"a/internal/ic3icp",
	)
}
