//! The paper's specific claims, checked mechanically against this
//! implementation: one test per claim, numbered in the order the paper
//! makes them.

use pte::fisher::proxy::conv_shape_fisher;
use pte::fisher::FisherLegality;
use pte::ir::{ConvShape, LoopNest};
use pte::transform::{named, registry, Schedule};

#[test]
fn claim_1_nas_operations_are_program_transformations() {
    // §5.1: bottleneck, group and depthwise are schedule rewrites with
    // exactly the domain effects the paper's T_S equations describe.
    let shape = ConvShape::standard(32, 32, 3, 18, 18);

    let mut s = Schedule::new(LoopNest::conv2d(&shape));
    s.bottleneck("co", 4).unwrap();
    assert_eq!(s.nest().loops()[0].extent(), 8); // c'_o < C_o / B

    let mut s = Schedule::new(LoopNest::conv2d(&shape));
    s.group(4).unwrap();
    // T_S(co, ci, J'') = (g, co/G, ci/G, J').
    let names: Vec<&str> = s.nest().loops().iter().map(|l| l.name()).collect();
    assert_eq!(names[0], "g");
    assert_eq!(s.nest().find_loop("co.g").unwrap().extent(), 8);
    assert_eq!(s.nest().find_loop("ci.g").unwrap().extent(), 8);

    let mut s = Schedule::new(LoopNest::conv2d(&shape));
    s.depthwise().unwrap();
    // (g, 1, 1, J') simplified to (g, J').
    let names: Vec<&str> = s.nest().loops().iter().map(|l| l.name()).collect();
    assert_eq!(names, vec!["g", "oh", "ow", "kh", "kw"]);
}

#[test]
fn claim_2_fisher_potential_rejects_capacity_loss_without_training() {
    // §5.2: a training-free numeric check separates gentle from brutal
    // compression.
    let legality = FisherLegality::default();
    let original = ConvShape::standard(64, 64, 3, 18, 18);
    let base = conv_shape_fisher(&original, 1);

    let mut gentle = original;
    gentle.groups = 2;
    assert!(legality.is_legal(base, conv_shape_fisher(&gentle, 1)));

    let mut brutal = original;
    brutal.c_out = 4;
    brutal.bottleneck = 16;
    assert!(!legality.is_legal(base, conv_shape_fisher(&brutal, 1)));
}

#[test]
fn claim_3_unified_space_expresses_operators_nas_menus_lack() {
    // §5.3: spatial bottlenecking emerges from interchange + bottleneck.
    let mut composed = Schedule::new(LoopNest::conv2d(&ConvShape::standard(16, 16, 3, 18, 18)));
    named::spatial_bottleneck(&mut composed, 2).unwrap();
    let conv = composed.nest().conv().unwrap();
    assert_eq!((conv.sb_h, conv.sb_w), (2, 2));
    // Only interchange/reorder + bottleneck steps were used.
    for step in composed.steps() {
        let name = step.to_string();
        assert!(
            name.starts_with("reorder") || name.starts_with("bottleneck"),
            "unexpected step {name}"
        );
    }
}

#[test]
fn claim_4_discovered_sequences_are_reusable_operators() {
    // §7.3: sequences 1-3 apply across networks' layer shapes.
    for c in [32i64, 64] {
        let base = || Schedule::new(LoopNest::conv2d(&ConvShape::standard(c, c, 3, 18, 18)));
        let mut s1 = base();
        named::sequence_1(&mut s1, 2).unwrap();
        let mut s2 = base();
        named::sequence_2(&mut s2, 2).unwrap();
        let (lo, hi) = named::sequence_3(&base(), 2, 4).unwrap();
        assert!(s1.changes_capacity() && s2.changes_capacity());
        assert_eq!(lo.nest().conv().unwrap().groups, 2);
        assert_eq!(hi.nest().conv().unwrap().groups, 4);
    }
}

#[test]
fn claim_5_table_1_vocabulary_is_complete() {
    let names: Vec<&str> = registry::primitives().iter().map(|p| p.name).collect();
    for required in [
        "reorder",
        "tile",
        "unroll",
        "prefetch",
        "split",
        "fuse",
        "bottleneck",
        "group",
        "blockIdx",
        "threadIdx",
        "vthread",
    ] {
        assert!(names.contains(&required), "missing primitive {required}");
    }
}

#[test]
fn claim_6_evaluated_networks_match_paper_statistics() {
    use pte::nn::{densenet161, resnet34, resnext29_2x64d, DatasetKind};
    // §7.2: ImageNet ResNet-34 has 22M parameters; Figure 6 has 11 layers.
    let resnet = resnet34(DatasetKind::ImageNet);
    assert!((21_000_000..22_500_000).contains(&resnet.params()));
    assert_eq!(resnet.distinct_configs().len(), 11);
    // §6.1's architecture spread: grouped convs in ResNeXt, 1x1-heavy DenseNet.
    assert!(resnext29_2x64d().convs().iter().any(|l| l.groups > 1));
    let dense = densenet161(DatasetKind::Cifar10);
    let one_by_one = dense.convs().iter().filter(|l| l.kernel == 1).count();
    assert!(one_by_one * 2 >= dense.convs().len() - 10);
}

#[test]
fn claim_7_cell_space_is_15625_architectures() {
    use pte::nn::cell::{Cell, SPACE_SIZE};
    assert_eq!(SPACE_SIZE, 15_625);
    // Round-trip a scattering of indices.
    for i in (0..SPACE_SIZE).step_by(1_237) {
        assert_eq!(Cell::from_index(i).index(), i);
    }
}
