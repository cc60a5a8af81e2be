package detflow

import (
	"testing"

	"qcdoc/internal/analysis/analysistest"
)

func TestDetflow(t *testing.T) {
	analysistest.Run(t, "testdata", Analyzer, "a", "laundered")
}
