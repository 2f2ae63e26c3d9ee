//! Shared by the test files that pin the paper's headline claims by name:
//! each such test runs a figure at `--quick` and checks the claims that
//! figure declares (`Figure::claims`) on its rows, so a headline claim is
//! checked through the same predicates as the golden report, and a claim
//! renamed or dropped from its figure fails here by name.

use rfaas_bench::{Figure, Size, Table, FIGURES};

/// Figure `name`'s `--quick` tables.
pub fn quick_tables(name: &str) -> (&'static Figure, Vec<Table>) {
    let figure = FIGURES
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("no figure named {name}"));
    let tables = (figure.run)(Size::Quick);
    (figure, tables)
}

/// Check the claims `names` of `figure` on `tables`; each must be declared.
pub fn assert_claims(figure: &Figure, tables: &[Table], names: &[&str]) {
    let failed: Vec<String> = names
        .iter()
        .filter_map(|name| {
            let Some(claim) = figure.claims.iter().find(|c| c.name == *name) else {
                return Some(format!("{} declares no claim '{name}'", figure.name));
            };
            let detail = (claim.check)(tables).err()?;
            Some(format!(
                "{} / claim '{}' ({}): {detail}",
                figure.name, claim.name, claim.source
            ))
        })
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

/// Run figure `name` at `--quick` and check its claims `names` on its rows.
pub fn claims_hold(name: &str, names: &[&str]) {
    let (figure, tables) = quick_tables(name);
    assert_claims(figure, &tables, names);
}
