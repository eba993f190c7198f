package system

import "io"

// ResumeByReplay is the reference Resume is held to: the same decode,
// but each running app comes back by replaying its whole admission —
// premap through the placer included — and the overlays then overwrite
// what the replay produced.
func ResumeByReplay(r io.Reader, cfg Config) (*System, error) {
	return resume(r, cfg, func(s *System, a *App) {
		a.admit(s, s.placer)
		s.policy.AppStarted(s, a)
	})
}
