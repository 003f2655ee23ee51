// Package simclock abstracts time for the live platform: deployments run
// on the wall clock while tests run on a virtual clock that can be
// advanced deterministically. The simulator does not use it — its time is
// the event clock of internal/des.
package simclock
