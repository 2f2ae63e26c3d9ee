//! Figure 11: real-world serverless functions from SeBS on rFaaS and AWS
//! Lambda — (a) thumbnail generation and (b) ResNet-50 image recognition —
//! with small and large inputs, bare-metal and Docker executors, hot and warm
//! invocations.
//!
//! The rFaaS series are value rows: one deterministic invocation after a
//! warm-up. The AWS Lambda series are distributions of 200 RTTs drawn from
//! its latency model by a `DeterministicRng` seeded with 99, their one source
//! of variation.

use crate::{Claim, Row, Size, Table, Testbed};
use faas_baselines::aws_lambda;
use rfaas::PollingMode;
use sandbox::SandboxType;
use sim_core::DeterministicRng;
use workloads::{image_recognition_function, thumbnailer_function, Image, InputSizes};

/// The thumbnailer returns an encoded image, the classifier returns logits;
/// both decode from raw result bytes, so the handles are byte-typed on the
/// output side and Image-typed on the input side.
type ImageFn<'s> = rfaas::FunctionHandle<'s, Image, [u8]>;

struct Case {
    function: &'static str,
    input_label: &'static str,
    input_bytes: usize,
    output_capacity: usize,
}

fn thumbnailer_cases() -> Vec<Case> {
    vec![
        Case {
            function: "thumbnailer",
            input_label: "small (97 kB)",
            input_bytes: InputSizes::THUMBNAIL_SMALL,
            output_capacity: 300 * 1024,
        },
        Case {
            function: "thumbnailer",
            input_label: "large (3.6 MB)",
            input_bytes: InputSizes::THUMBNAIL_LARGE,
            output_capacity: 300 * 1024,
        },
    ]
}

fn inference_cases() -> Vec<Case> {
    vec![
        Case {
            function: "image-recognition",
            input_label: "small (53 kB)",
            input_bytes: InputSizes::INFERENCE_SMALL,
            output_capacity: 16 * 1024,
        },
        Case {
            function: "image-recognition",
            input_label: "large (230 kB)",
            input_bytes: InputSizes::INFERENCE_LARGE,
            output_capacity: 16 * 1024,
        },
    ]
}

fn measure(cases: &[Case], title: &'static str) -> Table {
    let mut rows = Vec::new();
    let configurations = [
        (
            "rFaaS bare-metal hot",
            SandboxType::BareMetal,
            PollingMode::Hot,
        ),
        (
            "rFaaS bare-metal warm",
            SandboxType::BareMetal,
            PollingMode::Warm,
        ),
        ("rFaaS Docker hot", SandboxType::Docker, PollingMode::Hot),
        ("rFaaS Docker warm", SandboxType::Docker, PollingMode::Warm),
    ];
    for (case_idx, case) in cases.iter().enumerate() {
        let image = Image::synthetic(case.input_bytes, 40 + case_idx as u64);
        let payload = image.encode();
        let x = case.input_bytes as f64 / 1024.0;
        for (label, sandbox, mode) in configurations {
            let testbed = Testbed::new(1);
            let session = testbed.allocated_session("fig11-client", 1, sandbox, mode);
            let function: ImageFn = session
                .function(case.function)
                .expect("function deployed")
                .with_output_capacity(case.output_capacity);
            function.invoke(&image).expect("warm-up invocation");
            let (_, rtt) = function.invoke_timed(&image).expect("invocation");
            rows.push(Row::value(
                format!("{label}, {}", case.input_label),
                x,
                rtt.as_millis_f64(),
                "ms",
            ));
        }

        // AWS Lambda baseline: same function work, HTTP/JSON invocation path.
        let aws = aws_lambda();
        let work = if case.function == "thumbnailer" {
            thumbnailer_function().compute_cost(payload.len())
        } else {
            image_recognition_function().compute_cost(payload.len())
        };
        let mut rng = DeterministicRng::new(99);
        let samples: Vec<f64> = (0..200)
            .map(|_| {
                aws.sample_rtt(
                    payload.len(),
                    case.output_capacity.min(256 * 1024),
                    work,
                    &mut rng,
                )
                .as_millis_f64()
            })
            .collect();
        rows.push(Row::distribution(
            format!("AWS Lambda, {}", case.input_label),
            x,
            &samples,
            "ms",
        ));
    }
    Table { title, rows }
}

pub(crate) const CLAIMS: &[Claim] = &[];

pub(crate) fn run(_size: Size) -> Vec<Table> {
    vec![
        measure(
            &thumbnailer_cases(),
            "Figure 11a: thumbnail generation (paper: rFaaS bare-metal 4.4 ms small / ~115 ms large; AWS 128-3072 ms)",
        ),
        measure(
            &inference_cases(),
            "Figure 11b: ResNet-50 image recognition (paper: rFaaS ~112-118 ms; AWS 512-3072 ms)",
        ),
    ]
}
