//! Integration tests offloading every evaluation workload through the full
//! rFaaS stack — via the typed session API — and checking the results
//! against local execution.

use rfaas::{Codec, PollingMode};
use rfaas_bench::Testbed;
use sandbox::{SandboxType, SharedFunction};
use workloads::blackscholes::price_batch;
use workloads::jacobi::{encode_install, encode_iterate, jacobi_sweep_rows};
use workloads::matmul::{encode_matmul_request, random_matrix};
use workloads::{
    generate_options, image_recognition_function, matmul_function, Image, InputSizes, JacobiSystem,
    OptionBatch,
};

/// The `f64`s `function` returns for `input` when invoked locally, with no
/// platform in between.
fn invoke_locally(function: SharedFunction, input: &[u8], capacity: usize) -> Vec<f64> {
    let mut output = vec![0u8; capacity];
    let written = function.invoke(input, &mut output).unwrap();
    <[f64]>::decode(&output[..written]).unwrap()
}

#[test]
fn offloaded_blackscholes_matches_local_pricing() {
    let testbed = Testbed::new(1);
    let session =
        testbed.allocated_session("bs-client", 2, SandboxType::BareMetal, PollingMode::Hot);
    let options = OptionBatch(generate_options(10_000, 17));
    let pricer = session
        .function::<OptionBatch, [f64]>("blackscholes")
        .unwrap()
        .with_output_capacity(options.len() * 8);
    let (prices, rtt) = pricer.invoke_timed(&options).unwrap();
    assert_eq!(prices, price_batch(&options));
    // 10 000 options at 80 ns each plus ~40 us of data movement.
    let rtt_us = rtt.as_micros_f64();
    assert!(
        (500.0..2_000.0).contains(&rtt_us),
        "pricing RTT {rtt_us} us"
    );
}

#[test]
fn offloaded_thumbnailer_produces_a_valid_thumbnail() {
    let testbed = Testbed::new(1);
    let session =
        testbed.allocated_session("thumb-client", 1, SandboxType::Docker, PollingMode::Warm);
    let image = Image::synthetic(InputSizes::THUMBNAIL_LARGE, 9);
    // Image in, image out: the result decodes straight through the codec.
    let thumbnailer = session
        .function::<Image, Image>("thumbnailer")
        .unwrap()
        .with_output_capacity(300 * 1024);
    let (thumbnail, rtt) = thumbnailer.invoke_timed(&image).unwrap();
    assert_eq!(thumbnail.width, 256);
    assert_eq!(thumbnail.height, 256);
    // End-to-end latency is dominated by the ~115 ms resize cost model.
    let rtt_ms = rtt.as_millis_f64();
    assert!(
        (80.0..200.0).contains(&rtt_ms),
        "thumbnailer RTT {rtt_ms} ms"
    );
}

#[test]
fn offloaded_inference_matches_local_model() {
    let testbed = Testbed::new(1);
    let session =
        testbed.allocated_session("ml-client", 1, SandboxType::BareMetal, PollingMode::Hot);
    let image = Image::synthetic(InputSizes::INFERENCE_SMALL, 23);
    let classify = session
        .function::<Image, [f64]>("image-recognition")
        .unwrap()
        .with_output_capacity(1000 * 8);
    let remote_logits = classify.invoke(&image).unwrap();
    let mut encoded = vec![0u8; image.encoded_len()];
    image.encode_into(&mut encoded).unwrap();
    let local_logits = invoke_locally(image_recognition_function(), &encoded, 1000 * 8);
    assert_eq!(remote_logits.len(), local_logits.len());
    for (r, l) in remote_logits.iter().zip(local_logits.iter()) {
        assert!((r - l).abs() < 1e-9);
    }
}

#[test]
fn offloaded_matmul_half_matches_local_kernel() {
    let n = 96;
    let mut config = rfaas::RFaasConfig::paper_calibration();
    config.max_payload_bytes = 2 * n * n * 8 + 4096;
    let testbed = Testbed::with_config(1, config);
    let session = testbed
        .session("mm-client")
        .memory_mib(2048)
        .connect()
        .unwrap();
    let a = random_matrix(n, 1);
    let b = random_matrix(n, 2);
    let request = encode_matmul_request(&a, &b, n, n / 2, n);
    let matmul = session
        .function::<[u8], [f64]>("matmul")
        .unwrap()
        .with_output_capacity((n / 2) * n * 8);
    let remote = matmul.invoke(&request[..]).unwrap();
    let local = invoke_locally(matmul_function(), &request, (n / 2) * n * 8);
    assert_eq!(remote.len(), local.len());
    for (r, l) in remote.iter().zip(local.iter()) {
        assert!((r - l).abs() < 1e-9);
    }
}

#[test]
fn distributed_jacobi_converges_with_cached_system() {
    let n = 120;
    let iterations = 60;
    let mut config = rfaas::RFaasConfig::paper_calibration();
    config.max_payload_bytes = n * n * 8 + 64 * 1024;
    let testbed = Testbed::with_config(1, config.clone());
    let session = testbed
        .session("jacobi-client")
        .memory_mib(2048)
        .connect()
        .unwrap();
    let system = JacobiSystem::generate(n, 77);
    let jacobi = session
        .function::<[u8], [f64]>("jacobi")
        .unwrap()
        .with_output_capacity(n * 8);
    let mut x = vec![0.0f64; n];
    let mut install_bytes = 0usize;
    let mut iterate_bytes = 0usize;
    for iteration in 0..iterations {
        let message = if iteration == 0 {
            let m = encode_install(&system, &x, n / 2, n);
            install_bytes = m.len();
            m
        } else {
            let m = encode_iterate(&x, n / 2, n);
            iterate_bytes = m.len();
            m
        };
        let remote = jacobi.invoke(&message[..]).unwrap();
        let local = jacobi_sweep_rows(&system, &x, 0, n / 2);
        x[..n / 2].copy_from_slice(&local);
        x[n / 2..].copy_from_slice(&remote);
    }
    // The warm-executor caching pays off: iterate messages are tiny.
    assert!(
        iterate_bytes * 20 < install_bytes,
        "{iterate_bytes} vs {install_bytes}"
    );
    // And the distributed solve converges like the local one.
    let mut local_solution = vec![0.0f64; n];
    for _ in 0..iterations {
        local_solution = jacobi_sweep_rows(&system, &local_solution, 0, n);
    }
    assert!(system.residual(&x) < 1e-4);
    assert!((system.residual(&x) - system.residual(&local_solution)).abs() < 1e-4);
}
