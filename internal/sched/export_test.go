package sched

// Resumes returns the number of coroutine resumes s has made over its
// lifetime (direct protocol): a token handoff to a process parked at its
// yield, a crash delivery or a teardown reap.
func Resumes(s *Session) int { return s.resumes }
