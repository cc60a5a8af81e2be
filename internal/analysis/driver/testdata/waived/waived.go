// Package waived carries one real crossalias finding under a justified
// waiver: the marker must accrue a suppression hit and the package
// must lint clean.
package waived

import "qcdoc/internal/event"

type tally struct{ n int }

func bumpRemote(src, dst *event.Engine, t *tally) {
	//qcdoclint:crossalias-ok fixture: dst owns t in the scenario this models
	src.CrossAt(dst, src.Now(), func() { t.n++ })
}
