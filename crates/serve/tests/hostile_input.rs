//! A hostile model body gets a 422 and leaves the daemon serving. The body
//! nests 5,000 elements (~35 KB, far under the body-size limit); a reader
//! that recursed per level would overflow a worker's stack and abort the
//! whole process, so this test lives in its own binary.

use hcg_core::emit::to_c_source;
use hcg_core::CompileSession;
use hcg_model::library;
use hcg_model::parser::model_to_xml;
use hcg_serve::{client, spawn, CompileOptions, ServeConfig};

#[test]
fn deep_nesting_is_rejected_and_the_daemon_keeps_serving() {
    let handle = spawn(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let levels = 5_000;
    let hostile = format!(
        "<model name=\"deep\">{}{}</model>",
        "<a>".repeat(levels),
        "</a>".repeat(levels)
    );
    let resp = client::compile(handle.addr(), "arch=neon128", hostile.as_bytes()).unwrap();
    assert_eq!(resp.status, 422);
    assert!(
        resp.text().contains("depth limit of 256"),
        "422 body names the limit: {}",
        resp.text()
    );

    let health = client::request(handle.addr(), "GET", "/health", b"").unwrap();
    assert_eq!(health.status, 200);

    let model = library::fig4_model();
    let options = CompileOptions::from_query(|k| (k == "arch").then(|| "neon128".to_owned()))
        .expect("valid options");
    let expected = to_c_source(
        &CompileSession::new(model.clone())
            .generate(options.build_generator().as_ref(), options.arch)
            .unwrap(),
    );
    let xml = model_to_xml(&model);
    let resp = client::compile(handle.addr(), "arch=neon128", xml.as_bytes()).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.text(), expected, "fig4 compiles as it would directly");
    handle.shutdown();
}

#[test]
fn a_model_name_cannot_inject_c_through_the_header_comment() {
    let handle = spawn(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut model = library::fig4_model();
    model.name = "x */ int evil; /*".to_owned();
    let xml = model_to_xml(&model);
    let resp = client::compile(handle.addr(), "arch=neon128", xml.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let header = resp.text().lines().next().unwrap_or_default().to_owned();
    assert!(
        header.starts_with("/* model: x * / int evil; /* |") && header.ends_with(" */"),
        "{header}"
    );
    assert_eq!(header.matches("*/").count(), 1, "{header}");
    handle.shutdown();
}
