package service

import (
	"icpic3/internal/engine"
	"icpic3/internal/reuse"
)

// lookupSeed consults the certificate store for the closest prior proof
// of the job's system.  It returns the stored certificate, which the
// runner hands to the engine that can start from it (IC3 takes a box
// invariant's cubes, k-induction a proof's depth), and a description of
// the match; nil means "run cold".  Only engines that can consume a
// seed trigger a lookup (BMC cannot), so the hit-rate metric measures
// reusable traffic, not all traffic.
func (s *Service) lookupSeed(jb *job) (*engine.Certificate, string) {
	if s.store == nil || jb.req.Engine == "bmc" {
		return nil, ""
	}
	s.metrics.incReuseLookup()
	m, ok := s.store.Lookup(jb.sys, s.cfg.ReuseMaxDist)
	if !ok {
		return nil, ""
	}
	cert := m.Entry.Cert
	if cert == nil || !(cert.Kind == engine.CertBoxInvariant && len(cert.Cubes) > 0 ||
		cert.Kind == engine.CertKInduction && cert.K != 0) {
		// nothing the engines can start from (a box invariant without
		// cubes): not a usable hit
		return nil, ""
	}
	s.metrics.incReuseHit()
	desc := m.Describe()
	s.logf("job %s: reuse hit %s from %s (%d clauses, k=%d)",
		jb.id, desc, m.Entry.Engine, len(cert.Cubes), cert.K)
	return cert, desc
}

// storeCertificate records a certified Safe result for future reuse.
// Persistence failures are logged, never fatal: the proof already
// happened, the cache is an optimization.
func (s *Service) storeCertificate(jb *job, engineUsed string, res engine.Result) {
	if s.store == nil || res.Verdict != engine.Safe || res.Certificate == nil {
		return
	}
	if err := s.store.Put(jb.sys, engineUsed, res.Depth, res.Certificate); err != nil {
		s.logf("job %s: certificate store: %v", jb.id, err)
	}
}

// ReuseStore exposes the certificate store (nil when reuse is disabled);
// for tests and diagnostics.
func (s *Service) ReuseStore() *reuse.Store { return s.store }
