// Package simclock abstracts the time container provisioning waits on:
// the platform sleeps on the wall clock, while tests run a virtual clock
// they advance deterministically. The simulator does not use it — its time is
// the event clock of internal/des.
package simclock
