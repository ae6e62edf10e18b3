// Fixture: scopes open and close in the same function; callees that
// need measuring get their own child scopes.
pub fn step(tel: &Telemetry) {
    let scope = tel.profile("interval");
    advance(tel);
    scope.end();
}

pub fn wrapped(tel: &Telemetry) {
    let span = tel.profile("day");
    run_day(tel, 7);
    span.end();
}
