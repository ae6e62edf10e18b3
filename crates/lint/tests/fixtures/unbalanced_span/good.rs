// Fixture: the repo's guard idioms are all fine — named guard ended on
// the same straight-line path, sequential rebinding, a `_`-prefixed
// *named* guard living to end of scope (Drop is the intended end), and
// early exits *after* the guard was ended.
pub fn step(tel: &Telemetry) {
    let scope = tel.profile("fault_service");
    service_faults();
    scope.end();
    let scope = tel.profile("accounting");
    account_energy();
    scope.end();
}

pub fn scan(tel: &Telemetry) {
    for host in hosts() {
        let _host_scan = tel.profile("vacate_host_scan");
        examine(host);
    }
}

pub fn traced(tel: &Telemetry) -> Option<u64> {
    let span = tel.profile("precopy_migrate");
    let out = migrate();
    span.end();
    let bytes = out.bytes?;
    Some(bytes)
}
