package testy

import "qcdoc/internal/event"

type tally struct{ n int }

func bumpRemote(src, dst *event.Engine, t *tally) {
	src.CrossAt(dst, src.Now(), func() { t.n++ })
}
