// Package unknown carries a marker kind no analyzer owns: a typo'd
// marker must fail the run rather than silently waive nothing.
package unknown

//qcdoclint:crossalais-ok misspelled analyzer name
func alsoClean() int { return 7 }
