// Package stale carries a marker that suppresses nothing: the driver
// must fail the run with a stale-waiver finding.
package stale

//qcdoclint:crossalias-ok deliberately stale: nothing below ever reports
func clean() int { return 42 }
