(* Unit tests for Hybrid_p2p.Peer: pure structural helpers. *)

module Peer = Hybrid_p2p.Peer
module Config = Hybrid_p2p.Config

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let interner = Hybrid_p2p.Intern.create ()

let mk ?(role = Peer.S_peer) ?(capacity = 1.0) host =
  Peer.make ~log:{ Peer.peers = Hybrid_p2p.Change_log.create (); keys = Hybrid_p2p.Change_log.create () } ~interner ~host ~p_id:host ~role ~link_capacity:capacity ()

let config = Config.default (* delta = 3 *)

let test_roles () =
  let t = mk ~role:Peer.T_peer 1 and s = mk 2 in
  checkb "t" true (Peer.is_t_peer t);
  checkb "t not s" false (Peer.is_s_peer t);
  checkb "s" true (Peer.is_s_peer s)

let test_segment () =
  let a = mk ~role:Peer.T_peer 100 and b = mk ~role:Peer.T_peer 200 in
  Peer.set_pred a (Some b);
  checki "segment left is pred id" 200 (Peer.segment_left a);
  checkb "covers own id" true (Peer.covers a 100);
  checkb "covers wrapped interval" true (Peer.covers a 50);
  checkb "does not cover pred id" false (Peer.covers a 200);
  checkb "does not cover outside" false (Peer.covers a 150);
  (* single node on ring covers everything *)
  let solo = mk ~role:Peer.T_peer 300 in
  Peer.set_pred solo (Some solo);
  checkb "solo covers all" true (Peer.covers solo 12345)

let test_tree_attach_detach () =
  let root = mk ~role:Peer.T_peer 0 in
  Peer.set_t_home root (Some root);
  Peer.set_p_id root 777;
  let child = mk 1 in
  Peer.attach_child ~parent:root ~child;
  checkb "cp set" true (match child.Peer.cp with Some p -> p == root | None -> false);
  checkb "t_home inherited" true
    (match child.Peer.t_home with Some p -> p == root | None -> false);
  checki "p_id inherited" 777 child.Peer.p_id;
  checki "root degree" 1 (Peer.tree_degree root);
  checki "child degree counts cp" 1 (Peer.tree_degree child);
  Peer.detach_child ~parent:root ~child;
  checkb "cp cleared" true (child.Peer.cp = None);
  checki "root degree after detach" 0 (Peer.tree_degree root)

let test_free_slot_delta () =
  let root = mk ~role:Peer.T_peer 0 in
  Peer.set_t_home root (Some root);
  checkb "empty root has slot" true (Peer.has_free_slot config root);
  for i = 1 to 3 do
    Peer.attach_child ~parent:root ~child:(mk i)
  done;
  checkb "root full at delta" false (Peer.has_free_slot config root);
  let s = mk 10 in
  Peer.attach_child ~parent:root ~child:s |> ignore;
  ignore s
  (* note: attach beyond delta is the caller's responsibility; has_free_slot
     is the guard *)

let test_free_slot_link_usage () =
  let cfg = { config with Config.link_usage_aware = true } in
  let fast = mk ~capacity:5.0 1 and slow = mk ~capacity:1.0 2 in
  (* degree+1 / capacity <= 1 ? fast: 1/5 yes; slow: 1/1 <= 1 yes, but
     after one child 2/1 > 1 *)
  checkb "fast accepts" true (Peer.has_free_slot cfg fast);
  checkb "slow accepts first" true (Peer.has_free_slot cfg slow);
  Peer.attach_child ~parent:slow ~child:(mk 3);
  checkb "slow rejects second" false (Peer.has_free_slot cfg slow)

let test_tree_members_preorder () =
  let root = mk ~role:Peer.T_peer 0 in
  Peer.set_t_home root (Some root);
  let a = mk 1 and b = mk 2 and c = mk 3 in
  Peer.attach_child ~parent:root ~child:a;
  Peer.attach_child ~parent:root ~child:b;
  Peer.attach_child ~parent:a ~child:c;
  let hosts = List.map (fun p -> p.Peer.host) (Peer.tree_members root) in
  checki "four members" 4 (List.length hosts);
  checkb "contains all" true
    (List.for_all (fun h -> List.mem h hosts) [ 0; 1; 2; 3 ]);
  checki "root first" 0 (List.hd hosts)

let test_tree_neighbors () =
  let root = mk ~role:Peer.T_peer 0 in
  Peer.set_t_home root (Some root);
  let a = mk 1 and b = mk 2 in
  Peer.attach_child ~parent:root ~child:a;
  Peer.attach_child ~parent:a ~child:b;
  checki "root neighbors" 1 (List.length (Peer.tree_neighbors root));
  checki "middle neighbors" 2 (List.length (Peer.tree_neighbors a));
  checki "leaf neighbors" 1 (List.length (Peer.tree_neighbors b))

let test_depth () =
  let root = mk ~role:Peer.T_peer 0 in
  Peer.set_t_home root (Some root);
  let a = mk 1 and b = mk 2 in
  Peer.attach_child ~parent:root ~child:a;
  Peer.attach_child ~parent:a ~child:b;
  checki "root depth" 0 (Peer.depth root);
  checki "a depth" 1 (Peer.depth a);
  checki "b depth" 2 (Peer.depth b)

let bypass_config = { config with Config.bypass_enabled = true; bypass_lifetime = 100.0 }

let test_bypass_add_and_expire () =
  let a = mk 1 and b = mk 2 in
  Peer.add_bypass bypass_config a b ~now:0.0;
  checki "one live at t=50" 1 (List.length (Peer.live_bypass a ~now:50.0));
  checki "expired at t=150" 0 (List.length (Peer.live_bypass a ~now:150.0))

let test_bypass_refresh () =
  let a = mk 1 and b = mk 2 in
  Peer.add_bypass bypass_config a b ~now:0.0;
  Peer.add_bypass bypass_config a b ~now:80.0;
  checki "still one link" 1 (List.length a.Peer.bypass);
  checki "refreshed survives" 1 (List.length (Peer.live_bypass a ~now:150.0))

let test_bypass_rules () =
  let a = mk 1 and b = mk 2 in
  (* disabled config: no link *)
  Peer.add_bypass config a b ~now:0.0;
  checki "disabled" 0 (List.length a.Peer.bypass);
  (* self link refused *)
  Peer.add_bypass bypass_config a a ~now:0.0;
  checki "no self link" 0 (List.length a.Peer.bypass);
  (* dead target refused *)
  Peer.set_alive b false;
  Peer.add_bypass bypass_config a b ~now:0.0;
  checki "no dead target" 0 (List.length a.Peer.bypass)

let test_bypass_degree_budget () =
  (* rule 1: bypass only while degree < delta *)
  let a = mk 1 in
  Peer.attach_child ~parent:a ~child:(mk 10);
  Peer.attach_child ~parent:a ~child:(mk 11);
  Peer.attach_child ~parent:a ~child:(mk 12);
  (* tree degree 3 = delta: no bypass capacity left *)
  Peer.add_bypass bypass_config a (mk 20) ~now:0.0;
  checki "full peer refuses bypass" 0 (List.length a.Peer.bypass);
  let b = mk 2 in
  Peer.attach_child ~parent:b ~child:(mk 13);
  Peer.add_bypass bypass_config b (mk 21) ~now:0.0;
  checki "partial peer accepts" 1 (List.length b.Peer.bypass);
  Peer.add_bypass bypass_config b (mk 22) ~now:0.0;
  checki "second accepted (degree 1 + 1 bypass < 3)" 2 (List.length b.Peer.bypass);
  Peer.add_bypass bypass_config b (mk 23) ~now:0.0;
  checki "third refused (tree 1 + bypass 2 = 3)" 2 (List.length b.Peer.bypass)

let test_bypass_prunes_dead () =
  let a = mk 1 and b = mk 2 in
  Peer.add_bypass bypass_config a b ~now:0.0;
  Peer.set_alive b false;
  checki "dead target pruned" 0 (List.length (Peer.live_bypass a ~now:10.0))

let suite =
  [
    Alcotest.test_case "roles" `Quick test_roles;
    Alcotest.test_case "segment ownership" `Quick test_segment;
    Alcotest.test_case "tree attach/detach" `Quick test_tree_attach_detach;
    Alcotest.test_case "free slot: delta" `Quick test_free_slot_delta;
    Alcotest.test_case "free slot: link usage" `Quick test_free_slot_link_usage;
    Alcotest.test_case "tree members" `Quick test_tree_members_preorder;
    Alcotest.test_case "tree neighbors" `Quick test_tree_neighbors;
    Alcotest.test_case "depth" `Quick test_depth;
    Alcotest.test_case "bypass: add and expire" `Quick test_bypass_add_and_expire;
    Alcotest.test_case "bypass: refresh" `Quick test_bypass_refresh;
    Alcotest.test_case "bypass: rules" `Quick test_bypass_rules;
    Alcotest.test_case "bypass: degree budget" `Quick test_bypass_degree_budget;
    Alcotest.test_case "bypass: prunes dead" `Quick test_bypass_prunes_dead;
  ]
