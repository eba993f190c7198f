package system

import (
	"io"

	"vulcan/internal/migrate"
	"vulcan/internal/pagetable"
)

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

// ResumeObservingMigrations is Resume with each running app's migration
// engine rebuilt so that observe sees every page that enters the
// migration path, just before the engine's THP split of its huge page.
// The checkpoint overlays then restore the engine's and the async
// migrator's state, so the run is Resume's.
func ResumeObservingMigrations(r io.Reader, cfg Config, observe func(a *App, vp pagetable.VPage)) (*System, error) {
	return resume(r, cfg, func(s *System, a *App) {
		a.build(s)
		ec := a.Engine.Config()
		split := ec.PreMigrate
		ec.PreMigrate = func(vp pagetable.VPage) float64 {
			observe(a, vp)
			return split(vp)
		}
		a.Engine = migrate.NewEngine(ec)
		a.Async = migrate.NewAsyncMigrator(migrate.AsyncConfig{Engine: a.Engine})
		if a.Retry != nil {
			a.Retry = migrate.NewRetrier(a.Engine)
		}
		if pp, ok := s.placer.(PremapPlacer); ok {
			pp.Premapped(s, a, a.PremappedPages())
		}
		s.policy.AppStarted(s, a)
	})
}

// PremappedPages is the number of pages admission premaps for the app.
func (a *App) PremappedPages() int {
	_, _, n := a.premapLayout()
	return n
}
